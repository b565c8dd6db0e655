import importlib.util
import os
import sys
from pathlib import Path

import pytest

import jamgame.reactive as reactive
from jamgame.dist import Tabulated

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "kernel_calls.py"


@pytest.fixture(scope="module")
def kernel_calls():
    # the tool puts tools/ on sys.path and, through output_digest, pins the
    # BLAS thread counts in os.environ when imported; put both back after
    saved_env, saved_path = dict(os.environ), list(sys.path)
    spec = importlib.util.spec_from_file_location("kernel_calls", TOOL)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        os.environ.clear()
        os.environ.update(saved_env)
        sys.path[:] = saved_path


def test_counts_one_reactive_deck(kernel_calls, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    cli, wl = kernel_calls._load(ROOT)
    originals = (reactive.evaluate, reactive._second_order, reactive._newton_jump,
                 Tabulated.__init__, Tabulated.pdf, Tabulated._cumulative)
    counts, failures = kernel_calls.count(cli, wl, "reactive-solve", 21, 1)
    assert failures == []
    assert counts["ops"] > 0
    assert counts["evaluate"] > counts["second_order"] > 0
    assert counts["newton_jump"] >= counts["newton_jump_landed"] > 0
    assert counts["tables_built"] > 0 and counts["pdf_building_table"] > 0
    assert counts["cumulative"] > 0
    # once built, a table is never read through the scalar pdf by a solve
    assert counts["pdf"] == 0
    # the wrappers are gone on exit
    assert (reactive.evaluate, reactive._second_order, reactive._newton_jump, Tabulated.__init__,
            Tabulated.pdf, Tabulated._cumulative) == originals
