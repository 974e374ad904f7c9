"""Helpers that only the tests use: dense matrix products and random
nonsingular quadratic forms."""

from t2forms import linalg
from t2forms.quadform import QuadraticForm


def mat_mul(field, A, B):
    n = len(A)
    m = len(B[0]) if B else 0
    k = len(B)
    out = [[field.zero] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        Oi = out[i]
        for t in range(k):
            a = Ai[t]
            if field.is_zero(a):
                continue
            Bt = B[t]
            for j in range(m):
                b = Bt[j]
                if not field.is_zero(b):
                    Oi[j] = field.add(Oi[j], field.mul(a, b))
    return out


def mat_vec(field, A, v):
    out = []
    for row in A:
        acc = field.zero
        for a, x in zip(row, v):
            if not field.is_zero(a) and not field.is_zero(x):
                acc = field.add(acc, field.mul(a, x))
        out.append(acc)
    return out


def random_nonsingular_form(field, dim, rng):
    """Random even-dimensional nonsingular form, by rejection."""
    assert dim % 2 == 0
    f = field
    while True:
        diag = [f.random_element(rng) for _ in range(dim)]
        polar = [[f.zero] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i + 1, dim):
                v = f.random_element(rng)
                polar[i][j] = v
                polar[j][i] = v
        q = QuadraticForm(f, diag, polar, validate=False)
        if not linalg.kernel(f, polar, dim):
            return q
