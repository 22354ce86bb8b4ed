"""The package's import path: each public name is declared once, in its
module's `__all__`, and scipy stays off it and every CLI command's."""

import importlib
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

MODULES = ("chains", "jlo", "linalg", "randomgen", "shuffles", "spectral",
           "suites")

# the package's public names
SURFACE = set("""
    Chain DegreeCapError ElementaryChain GradedSpace IDENTITIES
    Idempotent JLOEvaluator NonConvergentError NonHermitianError
    NonIntegerIndexError NotIdempotentError NotSelfAdjointError
    PairingReport Parity ParityError RunConfig SimplexOrderError
    SpectralGapWarning SpectralTripleFD TermBudgetError
    bch_cochain br_operation commutator_d
    connes_B curated_index_pairs cyclic_region_locate
    cyclic_shuffle_peak_rows delta_perturbation
    enumerate_cyclic_shuffles enumerate_shuffles format_report_rows
    frob hochschild_b
    idempotent_from_json idempotent_to_json index_of_pair index_pairing
    is_cyclic_shuffle jlo_cochain jlo_cochain_mc jlo_integrand
    kernel_projection matrix_from_json matrix_to_json
    opnorm parity_of permutation_signs
    perturbed_cochain probe_distance product_triple random_chain
    random_even random_odd_hermitian random_triple run_suite
    sample_simplex_batch shuffle_product sorting_images supertrace
    triple_from_json triple_to_json validate_idempotent validate_triple
""".split())


def test_package_reexports_each_module_list_once():
    modules = [importlib.import_module(f"jlolab.{m}") for m in MODULES]
    assert jlolab.__all__ == [n for m in modules for n in m.__all__]
    assert len(set(jlolab.__all__)) == len(jlolab.__all__)
    assert set(jlolab.__all__) == SURFACE
    for m in modules:
        for name in m.__all__:
            assert getattr(jlolab, name) is getattr(m, name)


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
