"""tools/ab_inprocess.py at smoke scale, with this checkout on both sides."""

import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("ab_inprocess",
                                                  ROOT / "tools" / "ab_inprocess.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_copies_of_one_checkout_time_alike_and_agree(capsys):
    tool = load_tool()
    assert tool.main(["--parent", str(ROOT), "--change", str(ROOT), "--scale", "smoke",
                      "--workload", "train_bigru_att_sst"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "sentence_gradients", "evaluate", "train", "sentence_gradients peak",
        "evaluate peak", "train peak", "largest loss difference"]
    for line in lines[:3]:
        assert "won" in line and f"/{tool.BATCHES}" in line
    for line in lines[3:6]:
        parent, change = re.fullmatch(r"\w+ peak: parent (\S+) MiB, change (\S+) MiB",
                                      line).groups()
        assert 0 < float(parent) and 0 < float(change)
    assert lines[6] == "largest loss difference: 0"
    # each side ran its own import of the package, apart from ``arbogru``
    models = [sys.modules[f"arbogru_{side}.model"] for side in ("parent", "change")]
    assert models[0] is not models[1]
    assert all(model.__file__ == str(ROOT / "src" / "arbogru" / "model.py")
               for model in models)
    assert sys.modules.get("arbogru.model") not in models
