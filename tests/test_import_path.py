"""scipy stays off the package's import path and every CLI command's."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import jlolab
from jlolab import jlo
from jlolab.spectral import idempotent_to_json, triple_to_json
from jlolab.suites import curated_index_pairs

# runs in a fresh interpreter; prints, after each step, whether scipy
# has been imported
CHILD = textwrap.dedent("""
    import contextlib, io, json, sys
    seen = {}
    import jlolab, jlolab.cli
    seen["import"] = "scipy" in sys.modules
    for step, argv in (("index", ["index", *sys.argv[1:]]),
                       ("decompose", ["decompose", "--shuffle", "2", "1"])):
        with contextlib.redirect_stdout(io.StringIO()):
            assert jlolab.cli.main(argv) == 0, step
        seen[step] = "scipy" in sys.modules
    print(json.dumps(seen))
""")


def test_cold_start_leaves_scipy_unimported(tmp_path):
    _, t, e, _ = curated_index_pairs()[0]
    paths = [tmp_path / "t.json", tmp_path / "e.json"]
    paths[0].write_text(json.dumps(triple_to_json(t)))
    paths[1].write_text(json.dumps(idempotent_to_json(e)))
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(jlolab.__file__)))
    out = subprocess.run([sys.executable, "-c", CHILD, *map(str, paths)],
                         env=env, capture_output=True, text=True, timeout=120,
                         check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == {
        "import": False, "index": False, "decompose": False}


def test_expm_resolves_lazily_and_nothing_else_does():
    import scipy.linalg
    assert jlo.expm is scipy.linalg.expm
    assert "expm" not in vars(jlo)
    with pytest.raises(AttributeError, match="no_such_name"):
        jlo.no_such_name
