"""Minimum-distance lower bounds for q-ary cyclic codes.

BCH and Hartmann-Tzeng bounds with explicit witnesses, the
non-zero-locator bound d* = ceil(mu / d_l) with searchable certificates,
candidate locator generation, an exact information-set distance oracle,
constructions of lowest-rate distance-2/3 binary cyclic codes, and
syndrome decoding up to floor((d* - 1) / 2) errors through a generalized
Key Equation.

The decoder's names (DecodeResult, DecoderContext, build_context, decode)
are exported as before, but cycbound.decoder is imported on first access
to one of them (a module __getattr__, PEP 562), so a process that only
bounds codes never loads it.
"""

from .gf import (
    DigitField,
    FieldCtx,
    FieldSpec,
    build_field,
    combined_degree,
    min_extension_degree,
    nth_root_of_unity,
)
from .cyclic import (
    BchWitness,
    CyclicCodeSpec,
    DistanceWitness,
    HtWitness,
    bch_bound,
    build_code,
    cyclotomic_coset,
    distance_three_witness,
    encode,
    generator_polynomial,
    has_distance_two,
    ht_bound,
    lowest_rate_d2_code,
    lowest_rate_d3_code,
    min_distance_oracle,
)
from .nzl import (
    LocatorSpec,
    NzlCertificate,
    best_bound,
    candidate_locators,
    ht_improvement_predicate,
    min_weight_codeword,
    mu_search,
    nzl_bound,
    ratio_grid,
    rs_closed_form,
    spc_closed_form,
    verify_certificate,
)

_DECODER_NAMES = frozenset({"DecodeResult", "DecoderContext", "build_context", "decode"})


def __getattr__(name: str):
    if name in _DECODER_NAMES:
        from . import decoder

        return getattr(decoder, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BchWitness",
    "CyclicCodeSpec",
    "DecodeResult",
    "DecoderContext",
    "DigitField",
    "DistanceWitness",
    "FieldCtx",
    "FieldSpec",
    "HtWitness",
    "LocatorSpec",
    "NzlCertificate",
    "bch_bound",
    "best_bound",
    "build_code",
    "build_context",
    "build_field",
    "candidate_locators",
    "combined_degree",
    "cyclotomic_coset",
    "decode",
    "distance_three_witness",
    "encode",
    "generator_polynomial",
    "has_distance_two",
    "ht_bound",
    "ht_improvement_predicate",
    "lowest_rate_d2_code",
    "lowest_rate_d3_code",
    "min_distance_oracle",
    "min_extension_degree",
    "min_weight_codeword",
    "mu_search",
    "nth_root_of_unity",
    "nzl_bound",
    "ratio_grid",
    "rs_closed_form",
    "spc_closed_form",
    "verify_certificate",
]
