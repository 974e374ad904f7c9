"""Second trace forms of central simple algebras in characteristic two.

Exact computation of trace forms, Witt classes, Arf and Clifford
invariants over towers of fields GF(2^k), with a verification harness
for the classification statements and a rational function field backend
for the Galois obstruction test.
"""

from .fields import (
    GF2,
    FieldError,
    Level,
    NotAPower,
    RejectsReducible,
    find_irreducible,
    poly_is_irreducible,
    poly_nth_root,
)
from .quadform import (
    BrauerClass,
    QuadraticForm,
    WittClass,
    arf,
    block_decompose,
    clifford_invariant,
    direct_sum,
    quaternion_is_split,
    witt_class,
)
from .csa import (
    Algebra,
    ReducedCharPoly,
    b_subspace_form,
    crossed_product,
    cyclic_cocycle,
    left_regular_matrix,
    matrix_algebra,
    quaternion_algebra,
    reduced_charpoly,
    second_trace_form,
    t2_form,
    tensor_product,
    trace_zero_subspace,
)
from .rational import FunctionField, Rat
from .rational import wp_member as rational_wp_member
from .theorems import (
    Prediction,
    VerificationReport,
    example1_audit,
    galois_obstruction,
    predicted_crossed_odd,
    predicted_invariants,
    predicted_matrix_class,
    predicted_tensor,
    revoy_trace_form,
    revoy_trace_form_of_extension,
    run_verification,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
