"""Information-theoretic analysis of binary codes over BSC/BEC channels.

Exact and Monte Carlo entropic quantities, numerical verification of
noisy-entropy inequalities, and a radius-based list decoder with its
theoretical list-size formulas.
"""

from .bitspace import Code, make_code
from .boolfn import binary_entropy, ent, from_code, h_q, norm_q, renyi_entropy
from .channels import conditional_expectation, noise_operator
from .entropy_analysis import (
    EntropyReport,
    cond_entropy_bec,
    cond_entropy_bsc,
    entropy_report,
    marginal_entropy,
    subset_entropy_expectation,
)
from .inequalities import (
    HypothesisViolation,
    NoisyFunction,
    SlackReport,
    check_bsc_bec,
    check_cor_rv,
    check_cor_rv_entropy,
    check_sam_entropy,
    check_sam_norm,
    noisy_function,
    partial_entropy_bound_check,
    subset_stats,
)
from .listdecode import (
    DecoderConfig,
    DecodeTrialStats,
    decode,
    likely_probability,
    rs22_lower_bound,
    simulate,
    theoretical_list_size,
)

__version__ = "0.1.0"
