import numpy as np
import pytest

from decoupling_lab.errors import ValidationError
from decoupling_lab.value_space import DiscreteDistribution, norm, rademacher, uniform


def test_norm_examples():
    assert norm([0.0, 0.0], "euclidean") == 0.0
    assert norm([3.0, 4.0], "euclidean") == 5.0
    assert norm([3.0, 4.0], "maximum") == 4.0
    assert norm([3.0, 4.0], "abs_sum") == 7.0
    assert norm(-2.5, "euclidean") == 2.5


def test_norm_rejects_bad_kind():
    with pytest.raises(ValidationError):
        norm([1.0], "manhattan")


@pytest.mark.parametrize("kind", ["abs_sum", "euclidean", "maximum"])
def test_norm_axioms_random_vectors(kind):
    rng = np.random.default_rng(7)
    for _ in range(1000):
        dim = int(rng.integers(1, 5))
        a = rng.normal(size=dim)
        b = rng.normal(size=dim)
        c = float(rng.normal())
        assert norm(a, kind) >= 0.0
        assert norm(np.zeros(dim), kind) == 0.0
        assert norm(a + b, kind) <= norm(a, kind) + norm(b, kind) + 1e-12
        assert norm(c * a, kind) == pytest.approx(abs(c) * norm(a, kind), abs=1e-12)
    # definiteness: nonzero vector has nonzero norm
    assert norm([0.0, 1e-30], kind) > 0.0


def test_rademacher_definition():
    d = rademacher()
    assert set(d.atoms) == {-1.0, 1.0}
    assert d.probs == (0.5, 0.5)


def test_uniform_definition():
    d = uniform(3)
    assert d.size == 3
    assert all(p == pytest.approx(1 / 3) for p in d.probs)
    assert sum(d.atoms) == 0.0


def test_discrete_distribution_validation():
    with pytest.raises(ValidationError, match="sum to"):
        DiscreteDistribution((1.0,), (0.7,))
    with pytest.raises(ValidationError, match="duplicate atoms"):
        DiscreteDistribution((1.0, 1.0), (0.5, 0.5))
    with pytest.raises(ValidationError, match="outside"):
        DiscreteDistribution((1.0, 2.0), (1.5, -0.5))
    with pytest.raises(ValidationError, match="at least one atom"):
        DiscreteDistribution((), ())
    with pytest.raises(ValidationError, match="length mismatch"):
        DiscreteDistribution((1.0, 2.0), (1.0,))

