import numpy as np
import pytest

from phimp import Alphabet, FsmxSource, SuffixSet, compile_suffix_map


@pytest.fixture(scope="session")
def reference_map():
    return compile_suffix_map(SuffixSet(Alphabet(2), ((0,), (0, 1), (1, 1))))


@pytest.fixture(scope="session")
def reference_source(reference_map):
    # Pr(1 | state) = 0.2 / 0.5 / 0.8 for states 0, 01, 11
    emit = np.array([[0.8, 0.2], [0.5, 0.5], [0.2, 0.8]])
    return FsmxSource(reference_map, emit)
