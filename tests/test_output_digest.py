"""Smoke test of tools/output_digest.py on a small subset of its ops."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("output_digest",
                                                  ROOT / "tools" / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_of_a_small_subset():
    tool = _tool()
    doc = tool.digest(str(ROOT / "src"), seeds=(0,), limit=2,
                      sections=("collapse", "export", "help", "evolve"))
    json.dumps(doc)  # the digest is plain JSON
    collapse = doc["collapse"]["0"]
    assert len(collapse) == 2
    for rc, out, err in collapse.values():
        assert rc == 0 and json.loads(out)["closed"]["t_star"] > 0 and err == ""
    for rc, out, _, files in doc["export"]["0"].values():
        assert rc == 0 and out.startswith("<out>/")
        assert sorted(name[-4:] for name in files) == [".csv", "json"]
        assert all(len(digest) == 64 for digest in files.values())
    assert set(doc["help"]) == {"isoflow", "evolve", "collapse", "verify", "export"}
    assert all(rc == 0 and "usage: isoflow" in out for rc, out, _ in doc["help"].values())
    assert [rc for rc, _, _ in doc["evolve"].values()] == [0] * len(tool.EVOLVE)
    # Each op runs in process, so a second digest of the same ops is the same.
    assert tool.digest(str(ROOT / "src"), seeds=(0,), limit=2, sections=("export",)) == {
        "export": doc["export"]}
