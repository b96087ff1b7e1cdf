import math

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from missingmass import BlockVector, ProbVector

hypothesis.settings.register_profile(
    "default", deadline=None, suppress_health_check=[hypothesis.HealthCheck.too_slow]
)
hypothesis.settings.load_profile("default")


@st.composite
def prob_vectors(draw, min_n=1, max_n=25):
    weights = draw(
        st.lists(
            st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
            min_size=min_n,
            max_size=max_n,
        )
    )
    return ProbVector(weights, normalize=True)


@st.composite
def block_vectors(draw, max_blocks=8):
    pairs = draw(
        st.lists(
            st.tuples(st.floats(min_value=1e-3, max_value=1e3), st.integers(1, 2 ** 20)),
            min_size=1,
            max_size=max_blocks,
        )
    )
    total = math.fsum(w * c for w, c in pairs)
    return BlockVector([(w / total, c) for w, c in pairs])


sample_counts_t = st.integers(min_value=1, max_value=300)


def random_simplex(rng: np.random.Generator, n: int) -> ProbVector:
    return ProbVector(rng.exponential(size=n), normalize=True)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
