import math
import os
from pathlib import Path

import pytest

import annuharm
from annuharm import ProblemSpec, build_profile, parse_metric, solve_c

# subprocesses (`python -m annuharm`, the import check) load the annuharm
# under test, also when pytest found it through its `pythonpath` setting
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (
    str(Path(annuharm.__file__).resolve().parents[1]),
    os.environ.get("PYTHONPATH"))))


def solve_profile(metric_name, q, Q, r):
    metric = parse_metric(metric_name)
    spec = ProblemSpec(metric=metric, q=q, Q=Q, r=r)
    return build_profile(spec, solve_c(spec))


@pytest.fixture(scope="session")
def euclid_critical():
    # critical configuration: q = 2r/(1+r^2) at r = 0.5
    return solve_profile("euclidean", 0.8, 1.0, 0.5)


@pytest.fixture(scope="session")
def euclid_conformal():
    return solve_profile("euclidean", 0.8, 1.0, 0.8)


@pytest.fixture(scope="session")
def euclid_expanding():
    return solve_profile("euclidean", 0.8, 1.0, 0.9)


@pytest.fixture(scope="session")
def inverse_r_expanding():
    # r chosen so that the solved constant is exactly 0.5:
    # r = exp(-mu(0.5)) with mu from the closed-form antiderivative
    r = math.exp(-2.0 * (math.log(1.0 + math.sqrt(1.5))
                         - math.log(math.sqrt(0.5) + 1.0)))
    return solve_profile("inverse_r", 0.5, 1.0, r)


@pytest.fixture(scope="session")
def sphere_expanding():
    from annuharm import modulus_of_c

    metric = parse_metric("sphere")
    r = math.exp(-modulus_of_c(metric, 0.5, 1.0, 0.3))
    return solve_profile("sphere", 0.5, 1.0, r)
