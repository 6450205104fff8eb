"""bernkit: exact-arithmetic toolkit for Bernstein basis functions.

Four layers:

* `polynomials` / `bernstein` -- exact rational polynomial algebra and the
  basis functions, with de Casteljau evaluation and basis conversions;
* `egf` -- a truncated exponential-generating-function ring whose
  functional-equation catalog is checked coefficient-wise;
* `identities` / `oracle` -- every classical identity as a parametrized
  exact check, next to an independent brute-force expansion oracle;
* `series` -- certified summation of the fixed-index series plus the
  quadrature cross-check of the monomial transform.

`cli`/`campaign` tie the layers into reproducible verification campaigns.
The package is pure Python: the dense convolution kernels live in
`polynomials` and the quadrature loop in `series`.
"""

__version__ = "0.1.0"

from .bernstein import (
    BernsteinForm,
    bernstein_basis,
    binomial,
    eval_de_casteljau,
    generalized_basis,
    to_bernstein,
    to_monomial,
)
from .egf import (
    FE_IDS,
    TruncatedEGF,
    check_closed_form,
    check_functional_equation,
    egf_bernstein,
    egf_bernstein_closed,
    egf_diff_t,
    egf_diff_x,
    egf_equal,
    egf_exp_affine,
    egf_mul,
    egf_substitute_t,
)
from .identities import (
    SUITE_IDS,
    mutation_slots,
    run_identity,
    verify_alternating_sum,
    verify_degree_ops,
    verify_derivative,
    verify_finite_sum,
    verify_monomial,
    verify_product,
    verify_recurrence,
    verify_subdivision,
    verify_sum,
    verify_two_point,
)
from .oracle import oracle_verify
from .polynomials import ExactScalar, Poly1, Poly2, as_scalar, scalar_str
from .report import IdentityReport, Witness
from .series import (
    SERIES_IDS,
    LaplaceResult,
    SeriesCheck,
    laplace_monomial,
    partial_sum,
    required_terms,
    series_sweep,
    tail_bound,
)

__all__ = [
    "__version__",
    "BernsteinForm",
    "bernstein_basis",
    "binomial",
    "eval_de_casteljau",
    "generalized_basis",
    "to_bernstein",
    "to_monomial",
    "FE_IDS",
    "TruncatedEGF",
    "check_closed_form",
    "check_functional_equation",
    "egf_bernstein",
    "egf_bernstein_closed",
    "egf_diff_t",
    "egf_diff_x",
    "egf_equal",
    "egf_exp_affine",
    "egf_mul",
    "egf_substitute_t",
    "SUITE_IDS",
    "mutation_slots",
    "run_identity",
    "verify_alternating_sum",
    "verify_degree_ops",
    "verify_derivative",
    "verify_finite_sum",
    "verify_monomial",
    "verify_product",
    "verify_recurrence",
    "verify_subdivision",
    "verify_sum",
    "verify_two_point",
    "oracle_verify",
    "ExactScalar",
    "Poly1",
    "Poly2",
    "as_scalar",
    "scalar_str",
    "IdentityReport",
    "Witness",
    "SERIES_IDS",
    "LaplaceResult",
    "SeriesCheck",
    "laplace_monomial",
    "partial_sum",
    "required_terms",
    "series_sweep",
    "tail_bound",
]
