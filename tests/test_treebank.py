import gc
import tracemalloc

import numpy as np
import pytest

from arbogru.embeddings import build_vocab
from arbogru.model import child_slots
from arbogru.treebank import (Corpus, Forest, LabeledTree, TreebankError, load_corpus,
                              parse_tree, random_tree,
                              serialize_tree, to_binary_task)

from conftest import WORDS, synth_corpus


def iter_nodes(tree):
    """Nodes in pre-order (node before its children)."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def max_arity(tree):
    return max(len(node.children) for node in iter_nodes(tree))


def columns(forest):
    """Every node column and the offsets, as lists, with leaf words spelled out."""
    words = [forest.lexicon[w] if w >= 0 else None for w in forest.words.tolist()]
    return (forest.parents.tolist(), forest.slots.tolist(), words, forest.gold.tolist(),
            forest.heights.tolist(), forest.depths.tolist(), forest.offsets.tolist())


def test_parse_two_leaf_tree():
    tree = parse_tree("(3 (2 good) (2 movie))")
    assert tree.label == 3
    assert columns(tree)[2] == [None, "good", "movie"]
    assert [c.label for c in tree.children] == [2, 2]


def test_parse_single_leaf():
    tree = parse_tree("(2 hello)")
    assert tree.label == 2
    assert columns(tree)[2] == ["hello"]
    assert tree.children == ()


def test_parse_unbalanced():
    with pytest.raises(TreebankError, match="unbalanced"):
        parse_tree("(3 (2 a)")


def test_parse_error_names_offset():
    try:
        parse_tree("(3 (x a))")
    except TreebankError as err:
        assert err.offset == 4
        assert "offset 4" in str(err)
    else:
        pytest.fail("expected a parse error")


@pytest.mark.parametrize("line,fragment", [
    ("(9 hello)", "outside"),
    ("(x hello)", "non-integer"),
    ("(2)", "empty node"),
    ("(2   )", "empty node"),
    ("(2 hi) trailing", "trailing"),
    ("(-1 hi)", "outside"),
    ("", "empty input"),
    ("(2 hi))", "trailing"),
    ("(2 hi extra)", "expected .\\)."),
])
def test_parse_rejects(line, fragment):
    with pytest.raises(TreebankError, match=fragment):
        parse_tree(line)


def test_roundtrip_examples():
    for line in ["(3 (2 good) (2 movie))", "(2 hello)",
                 "(4 (3 (2 a) (3 fine)) (2 film))",
                 "(1 (1 (0 awful)))"]:
        tree = parse_tree(line)
        assert serialize_tree(tree) == line
        assert columns(parse_tree(serialize_tree(tree))) == columns(tree)


def test_roundtrip_random_trees():
    rng = np.random.default_rng(7)
    words = ["alpha", "beta", "gamma", "Delta-9", "it's"]
    for _ in range(200):
        tree = random_tree(rng, words, max_nodes=13)
        line = serialize_tree(tree)
        again = parse_tree(line)
        assert columns(again) == columns(tree)
        assert serialize_tree(again) == line


def test_node_count_matches_open_parens():
    rng = np.random.default_rng(11)
    for _ in range(100):
        tree = random_tree(rng, ["x", "y"], max_nodes=11)
        assert tree.node_count == serialize_tree(tree).count("(")


def test_whitespace_normalization():
    assert serialize_tree(parse_tree("( 3  (2 good)   (2 movie) )")) == \
        "(3 (2 good) (2 movie))"


def test_labeled_tree_builds_the_parsed_columns():
    assert columns(LabeledTree(3, token="good")) == columns(parse_tree("(3 good)"))
    tree = parse_tree("(3 (2 good) (1 (2 movie)))")
    assert columns(tree) != columns(parse_tree("(3 (2 good) (1 (3 movie)))"))
    assert columns(parse_tree(serialize_tree(tree))) == columns(tree)
    # same labels and tokens in pre-order, different shape
    one, two = parse_tree("(1 (2 (3 a) (3 b)))"), parse_tree("(1 (2 (3 a)) (3 b))")
    assert columns(one) != columns(two)
    assert serialize_tree(one) != serialize_tree(two)


def test_deep_chain_compares_by_columns():
    # far deeper than the interpreter's recursion limit
    depth = 1500
    line = "(1 " * depth + "(4 good)" + ")" * depth
    one, two = parse_tree(line), parse_tree(line)
    assert one is not two
    assert columns(one) == columns(two)
    assert one.gold.tolist().count(1) == (one.words < 0).sum() == depth
    assert columns(one) != columns(parse_tree("(1 " * depth + "(4 bad)" + ")" * depth))


def test_one_tree_accessors_refuse_other_tree_counts(tmp_path):
    path = tmp_path / "two.txt"
    path.write_text("(3 (2 good) (2 movie))\n(2 hello)\n")
    for forest in (load_corpus(path).trees, Forest.concat([])):
        for name in ("label", "children"):
            with pytest.raises(ValueError, match=f"forest of {len(forest)} trees"):
                getattr(forest, name)


def test_concat_joins_trees_and_the_words_they_use(tmp_path):
    empty = Forest.concat([])
    assert len(empty) == empty.node_count == 0
    assert empty.offsets.tolist() == [0] and empty.lexicon == []
    lines = ["(3 (2 good) (2 movie))", "(2 (2 the) (2 film))", "(1 (1 dull) (2 film))"]
    path = tmp_path / "train.txt"
    path.write_text("\n".join(lines) + "\n")
    corpus = load_corpus(path)
    cut = Forest.concat([corpus.trees[2], corpus.trees[0]])
    assert [serialize_tree(tree) for tree in cut] == [lines[2], lines[0]]
    assert cut.lexicon == ["dull", "film", "good", "movie"]
    parsed = Corpus([parse_tree(line) for line in lines], "train", "fine", 5)
    assert build_vocab(parsed).id_to_word == build_vocab(corpus).id_to_word


def test_parse_error_offsets_count_characters_of_the_stripped_line(tmp_path):
    line = "(3 (2 café) (x a))"
    with pytest.raises(TreebankError, match="non-integer label 'x' at offset 13$"):
        parse_tree(line)  # the character index of x; its UTF-8 byte index is 14
    path = tmp_path / "train.txt"
    path.write_text(f"(2 ok)\n  \t{line}  \n", encoding="utf-8")
    with pytest.raises(TreebankError, match="line 2: non-integer label 'x' at offset 13$"):
        load_corpus(path)


def test_load_corpus(tmp_path):
    path = tmp_path / "train.txt"
    path.write_text("(3 (2 good) (2 movie))\n(2 hello)\n\n(0 (0 awful) (2 plot))\n")
    corpus = load_corpus(path)
    assert len(corpus) == 3
    assert corpus.split_name == "train"
    assert corpus.task == "fine"
    assert corpus.class_count == 5


def test_load_corpus_empty_file(tmp_path):
    path = tmp_path / "dev.txt"
    path.write_text("")
    corpus = load_corpus(path)
    assert len(corpus.trees) == 0


def test_load_corpus_reports_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("(2 ok)\n(7 over)\n")
    with pytest.raises(TreebankError, match="line 2"):
        load_corpus(path)


def test_load_corpus_names_a_line_that_is_not_utf8(tmp_path):
    # past the first read buffer, with the line ends text mode knows
    path = tmp_path / "train.txt"
    path.write_bytes(b"(2 ok)\r\n" * 2000 + b"(2 ok)\r(3 caf\xe9)\n(2 ok)\n")
    with pytest.raises(TreebankError, match=f"^{path}, line 2002: not UTF-8 text$"):
        load_corpus(path)


def test_load_corpus_holds_columns_not_node_objects(tmp_path):
    rng = np.random.default_rng(9)
    lines = [serialize_tree(random_tree(rng, WORDS, max_nodes=41)) for _ in range(2000)]
    path = tmp_path / "train.txt"
    path.write_text("\n".join(lines) + "\n")
    gc.collect()
    objects = len(gc.get_objects())
    tracemalloc.start()
    try:
        corpus = load_corpus(path)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nodes = corpus.trees.node_count
    assert nodes == sum(line.count("(") for line in lines) > 10 * len(lines)
    assert held <= 32 * nodes
    gc.collect()
    assert len(gc.get_objects()) - objects < len(lines)  # O(trees), not O(nodes)


def test_deep_chain_loads_batches_and_serializes(tmp_path):
    # far deeper than the interpreter's recursion limit
    depth = 5000
    line = "(3 " * depth + "(4 good)" + ")" * depth
    path = tmp_path / "deep.txt"
    path.write_text(line + "\n(1 bad)\n")
    forest = load_corpus(path, max_arity=2).trees
    assert forest.offsets.tolist() == [0, depth + 1, depth + 2]
    assert forest.heights[0] == forest.depths[depth] == depth
    batch = forest.select([1, 0])  # the short tree first: the chain shifts by one
    assert batch.offsets.tolist() == [0, 1, depth + 2]
    assert batch.parents[1:].tolist() == [-1] + list(range(1, depth + 1))
    slots = child_slots(batch, 2)
    assert slots[1:depth + 1, 0].tolist() == list(range(2, depth + 2))
    assert (slots[:, 1] == -1).all()
    assert serialize_tree(batch[1]) == line


def test_load_corpus_rejects_unknown_task(tmp_path):
    path = tmp_path / "train.txt"
    path.write_text("(2 hi)\n")
    with pytest.raises(ValueError):
        load_corpus(path, task="ternary")


def test_binary_task_drops_neutral_roots():
    lines = ["(3 (2 good) (2 movie))",   # positive root, kept
             "(2 (2 the) (2 film))",     # neutral root, dropped
             "(0 (1 bad) (2 plot))",     # negative root, kept
             "(4 great)"]
    corpus = Corpus([parse_tree(s) for s in lines], "train", "fine", 5)
    binary = to_binary_task(corpus)
    assert len(binary) == 3
    assert binary.task == "binary"
    assert binary.class_count == 2
    assert [t.label for t in binary.trees] == [1, 0, 1]


def test_binary_task_label_mapping_and_structure():
    tree = parse_tree("(4 (1 (0 awful) (2 plot)) (3 good))")
    corpus = Corpus([tree], "train", "fine", 5)
    mapped = to_binary_task(corpus).trees[0]
    # topology preserved exactly
    assert serialize_tree(tree) == "(4 (1 (0 awful) (2 plot)) (3 good))"
    before, after = columns(tree), columns(mapped)
    assert before[:3] == after[:3] and before[4:] == after[4:]  # all but gold
    # labels: root 4->1, internal 1->0, leaf 0->0, internal neutral unsupervised
    assert mapped.label == 1
    assert mapped.children[0].label == 0
    assert mapped.children[0].children[0].label == 0
    assert mapped.children[0].children[1].label is None
    assert mapped.children[1].label == 1


def test_binary_task_single_neutral_root_gives_empty_corpus():
    corpus = Corpus([parse_tree("(2 hello)")], "train", "fine", 5)
    assert len(to_binary_task(corpus).trees) == 0


def test_binary_task_rejects_binary_input():
    corpus = to_binary_task(Corpus([parse_tree("(4 great)")], "t", "fine", 5))
    with pytest.raises(ValueError, match="already binary"):
        to_binary_task(corpus)


def test_supervised_count_at_most_node_count():
    corpus = synth_corpus(30, seed=3)
    for tree in to_binary_task(corpus).trees:
        nodes = list(iter_nodes(tree))
        assert sum(n.label is not None for n in nodes) <= len(nodes)


def test_random_tree_respects_bounds():
    rng = np.random.default_rng(0)
    for _ in range(200):
        tree = random_tree(rng, ["a", "b", "c"], max_nodes=9)
        assert 1 <= tree.node_count <= 9
        assert max_arity(tree) <= 2


def test_deep_chain_roundtrip_and_binary_mapping():
    # depth far beyond the interpreter's recursion limit
    depth = 5000
    line = "(3 " * depth + "(4 good)" + ")" * depth
    tree = parse_tree(line)
    assert tree.node_count == depth + 1
    assert serialize_tree(tree) == line
    binary = to_binary_task(Corpus([tree], "deep", "fine", 5))
    assert set(binary.trees[0].gold.tolist()) == {1}
