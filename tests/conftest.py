"""Session-scoped solved fields shared across test modules.

Solves are the expensive part of the suite; each battery below is
computed once and reused by the solver, monotone, identities and
acceptance tests.
"""

import os

# one BLAS/OpenMP thread, as hessbench/run.py sets, before numpy is first
# imported: a fixture solve then takes the same time however busy the
# other cores are
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

from hesslab.monotone import ProblemSpec  # noqa: E402
from hesslab.solver import solve_exterior  # noqa: E402
from hesslab.surfaces import RevolutionBody  # noqa: E402

# property tests draw the same examples on every run, keep no example
# database and have no time limit per example, so the suite stays
# deterministic on a loaded machine
settings.register_profile(
    "hesslab", derandomize=True, deadline=None, database=None
)
settings.load_profile("hesslab")


@pytest.fixture(scope="session")
def sphere_k1_field():
    """Unit sphere, n=3, k=1, eps = 0.005 for oracle comparisons."""
    body = RevolutionBody.sphere(1.0, n=3)
    spec = ProblemSpec(n=3, k=1, a=1.0, eps=0.005)
    return solve_exterior(body, spec, N_s=256, N_theta=256, R_out=40.0)


@pytest.fixture(scope="session")
def sphere_k2_field():
    """Unit sphere, n=5, k=2, default eps."""
    body = RevolutionBody.sphere(1.0, n=5)
    spec = ProblemSpec(n=5, k=2, a=2.0)
    return solve_exterior(body, spec, N_s=256, N_theta=256)


@pytest.fixture(scope="session")
def prolate_field():
    """Prolate spheroid (1.5, 1), n=3, k=1."""
    body = RevolutionBody.spheroid(1.5, 1.0, n=3)
    spec = ProblemSpec(n=3, k=1, a=1.0)
    return solve_exterior(body, spec, N_s=256, R_out=40.0)


@pytest.fixture(scope="session")
def prolate_field_half():
    """Half-resolution companion to prolate_field for Richardson estimates."""
    body = RevolutionBody.spheroid(1.5, 1.0, n=3)
    spec = ProblemSpec(n=3, k=1, a=1.0)
    return solve_exterior(body, spec, N_s=128, R_out=40.0)


@pytest.fixture(scope="session")
def cosper_field():
    """Cosine-perturbed sphere r = 1 + 0.05 cos(2 theta), n=3, k=1."""
    body = RevolutionBody.cos_perturbed(n=3, amplitude=0.05, frequency=2)
    spec = ProblemSpec(n=3, k=1, a=1.0)
    return solve_exterior(body, spec, N_s=256, R_out=40.0)


@pytest.fixture(scope="session")
def cosper_field_half():
    """Half-resolution companion to cosper_field for Richardson estimates."""
    body = RevolutionBody.cos_perturbed(n=3, amplitude=0.05, frequency=2)
    spec = ProblemSpec(n=3, k=1, a=1.0)
    return solve_exterior(body, spec, N_s=128, R_out=40.0)


@pytest.fixture(scope="session")
def prolate_k2_field():
    """Prolate spheroid (1.5, 1), n=5, k=2: the paper's k >= 2 on a non-ball."""
    body = RevolutionBody.spheroid(1.5, 1.0, n=5)
    return solve_exterior(body, ProblemSpec(n=5, k=2, a=2.0), N_s=128)


@pytest.fixture(scope="session")
def prolate_k2_field_half():
    """Half-resolution companion to prolate_k2_field."""
    body = RevolutionBody.spheroid(1.5, 1.0, n=5)
    return solve_exterior(body, ProblemSpec(n=5, k=2, a=2.0), N_s=64)


@pytest.fixture(scope="session")
def cosper_k2_field():
    """Cosine-perturbed sphere r = 1 + 0.1 cos(2 theta), n=5, k=2."""
    body = RevolutionBody.cos_perturbed(n=5, amplitude=0.1, frequency=2)
    return solve_exterior(body, ProblemSpec(n=5, k=2, a=2.0), N_s=128)


@pytest.fixture(scope="session")
def cosper_k2_field_half():
    """Half-resolution companion to cosper_k2_field."""
    body = RevolutionBody.cos_perturbed(n=5, amplitude=0.1, frequency=2)
    return solve_exterior(body, ProblemSpec(n=5, k=2, a=2.0), N_s=64)
