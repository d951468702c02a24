"""Exact analysis of product-free subsets of the free semigroup."""

from .words import Alphabet, Word, concat, unrank
from .sets import (
    Dfa,
    LayeredSet,
    dfa_complement,
    dfa_concat,
    dfa_truncate,
    explicit_from_words,
)
from .density import (
    DensityProfile,
    layer_counts,
    profile,
    upper_asymptotic,
    upper_banach,
)
from .productfree import WitnessTriple, check_explicit, check_regular
from .proofkit import (
    LSequence,
    exceeds_phi,
    extract_lsequence,
    phi_level_set,
    chained_inequality_check,
    window_bound_certificate,
)
from .constructions import (
    asymmetric_triple,
    counting_pathology,
    greedy_random_productfree,
    odd_occurrence,
)
from .search import SearchResult, max_productfree

__version__ = "0.1.0"
