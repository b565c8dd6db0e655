import importlib.util
import os
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"


@pytest.fixture(scope="module")
def digest_tool():
    # the tool pins the BLAS thread counts in os.environ when imported; put
    # the environment back for the rest of the session
    saved = dict(os.environ)
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        os.environ.clear()
        os.environ.update(saved)
    return module


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
