import importlib.util
import os
import sys
from pathlib import Path

import pytest

import jamgame.reactive as reactive
from jamgame.dist import Tabulated

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "output_digest.py"


@pytest.fixture(scope="module")
def digest_tool():
    # the tool pins the BLAS thread counts in os.environ when imported, and
    # its _load puts src/ and perfbench/ on sys.path and stops bytecode
    # writes; put all three back for the rest of the session
    saved_env, saved_path, saved_bytecode = dict(os.environ), list(sys.path), sys.dont_write_bytecode
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        os.environ.clear()
        os.environ.update(saved_env)
    try:
        yield module
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_bytecode


@pytest.fixture(scope="module")
def program(digest_tool):
    return digest_tool._load(ROOT)


def _patched():
    """What ``Counter`` wraps while entered."""
    # jamgame.simulate is the simulate function, so the modules come by name
    return ([importlib.import_module(name).evaluate for name in
             ("jamgame", "jamgame.reactive", "jamgame.nonsensing", "jamgame.simulate")]
            + [reactive._second_order, reactive._newton_jump,
               Tabulated.__init__, Tabulated.pdf, Tabulated._cumulative])


@pytest.mark.parametrize("data,strict", [
    (b'{"threshold": 1.5, "points": [0.1, -2e-300]}', True),
    (b'{"threshold": "Infinity", "gap": "-Infinity"}', True),
    (b'{"threshold": Infinity}', False),
    (b'{"gap": -Infinity}', False),
    (b'[1.0, NaN]', False),
    (b'{"threshold": ', False),
])
def test_strict_json_refuses_bare_constants(digest_tool, data, strict):
    assert digest_tool._strict_json(data) is strict


def test_counts_one_reactive_deck(digest_tool, program):
    originals = _patched()
    _, _, counts, failures, _ = digest_tool.digest(*program, "reactive-solve", 21, 1)
    assert failures == []
    assert counts["ops"] > 0
    assert counts["evaluate"] > counts["second_order"] > 0
    assert counts["newton_jump"] >= counts["newton_jump_landed"] > 0
    assert counts["tables_built"] > 0 and counts["pdf_building_table"] > 0
    assert counts["cumulative"] > 0
    # once built, a table is never read through the scalar pdf by a solve
    assert counts["pdf"] == 0
    # the wrappers are gone on exit
    assert _patched() == originals


def test_counts_one_nonsensing_deck(digest_tool, program):
    _, kinds, counts, failures, _ = digest_tool.digest(*program, "nonsensing-sweep", 21, 1)
    assert failures == []
    assert {"solve-nonsensing-custom", "sweep-fig2-custom"} <= kinds.keys()
    # the closed-form saddle point takes no Newton step of PGA-CCP
    assert counts["second_order"] == 0
    # the threshold root reads a table's density at tau through the scalar pdf
    assert counts["pdf"] > 0


@pytest.mark.parametrize("workload", ["reactive-solve", "nonsensing-sweep"])
def test_counting_changes_no_output(digest_tool, program, workload, tmp_path):
    cli, wl = program
    inputs = wl.Inputs(tmp_path, 21)

    def outputs(op):
        for f in op.files:
            Path(f).unlink(missing_ok=True)
        return (digest_tool._run(cli, op.argv),
                [Path(f).read_bytes() if Path(f).exists() else None for f in op.files])

    originals, counts = _patched(), dict.fromkeys(digest_tool.KERNELS, 0)
    for op in wl.DECKS[workload](21, 0, inputs):
        plain = outputs(op)
        with digest_tool.Counter(counts):
            counted = outputs(op)
        assert counted == plain, op.argv
        assert _patched() == originals
    assert counts["evaluate"] > 0 and counts["cumulative"] > 0
