import itertools
import random

from hypothesis import given, settings, strategies as st

from t2forms import linalg
from t2forms.fields import GF2

from support import (
    ListRowLevel, kernel, kernel_generic, mat_mul, mat_vec, solve_by_augmented_column,
)


def charpoly_leibniz(f, M):
    """Reference charpoly via permutation expansion; char 2 drops signs."""
    n = len(M)
    poly = {}
    for perm in itertools.permutations(range(n)):
        term = {0: f.one}
        for i in range(n):
            entry = M[i][perm[i]]
            new = {}
            for d, c in term.items():
                if i == perm[i]:
                    new[d + 1] = f.add(new.get(d + 1, f.zero), c)
                if not f.is_zero(entry):
                    new[d] = f.add(new.get(d, f.zero), f.mul(c, entry))
            term = {d: c for d, c in new.items() if not f.is_zero(c)}
        for d, c in term.items():
            poly[d] = f.add(poly.get(d, f.zero), c)
    out = [f.zero] * (n + 1)
    for d, c in poly.items():
        out[d] = c
    return tuple(out)


def test_gf2_solve_and_kernel():
    rows = [0b011, 0b110]
    assert linalg.solve_gf2(rows, 3, 0b11) is not None
    assert linalg.solve_gf2([0b1, 0b1], 1, 0b01) is None  # x=1 and x=0
    ech = linalg.PackedEchelon(GF2, 3)
    for row in (0b011, 0b110):
        ech.insert(row)
    assert ech.kernel() == [0b111]


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_kept_echelon_form_solves_as_one_elimination(data):
    # the same solution, free unknowns zero, for every right hand side of
    # one eliminated system, as an elimination with that side attached
    ncols = data.draw(st.integers(1, 12))
    rows = data.draw(st.lists(st.integers(0, (1 << ncols) - 1), max_size=16))
    solver = linalg.GF2Solver(rows, ncols)
    # the same system written as column images: unknown i maps to bit r
    # for each row r that reads it
    images = [sum(((row >> i) & 1) << r for r, row in enumerate(rows)) for i in range(ncols)]
    for rhs in data.draw(st.lists(st.integers(0, (1 << len(rows)) - 1), min_size=1, max_size=8)):
        x = solver.solve(rhs)
        assert x == solve_by_augmented_column(rows, ncols, rhs)
        assert x == linalg.solve_gf2(rows, ncols, rhs)
        assert x == linalg.solve_gf2(linalg.rows_from_images(images, len(rows)), ncols, rhs)
        if x is not None:
            assert all((row & x).bit_count() % 2 == (rhs >> i) & 1 for i, row in enumerate(rows))


def test_charpoly_matches_leibniz(gf4, gf8):
    rng = random.Random(2)
    for _ in range(150):
        f = rng.choice([GF2, gf4, gf8])
        n = rng.randrange(1, 6)
        M = [[f.random_element(rng) for _ in range(n)] for _ in range(n)]
        assert tuple(linalg.charpoly(f, M)) == charpoly_leibniz(f, M)


def test_charpoly_known(gf4):
    assert linalg.charpoly(GF2, [[0, 1], [1, 0]]) == (1, 0, 1)
    assert linalg.charpoly(GF2, linalg.identity(GF2, 3)) == (1, 1, 1, 1)
    a = gf4.gen
    assert linalg.charpoly(gf4, [[a, 0], [0, a ^ 1]]) == (1, 1, 1)


def test_cayley_hamilton(gf4):
    rng = random.Random(3)
    for _ in range(40):
        f = rng.choice([GF2, gf4])
        n = rng.randrange(1, 7)
        M = [[f.random_element(rng) for _ in range(n)] for _ in range(n)]
        cp = linalg.charpoly(f, M)
        acc = [[f.zero] * n for _ in range(n)]
        P = linalg.identity(f, n)
        for c in cp:
            if not f.is_zero(c):
                for i in range(n):
                    for j in range(n):
                        acc[i][j] = f.add(acc[i][j], f.mul(c, P[i][j]))
            P = mat_mul(f, P, M)
        assert all(all(f.is_zero(v) for v in row) for row in acc)


def test_second_coefficient_matches_charpoly(gf4, gf8):
    rng = random.Random(4)
    for _ in range(60):
        f = rng.choice([GF2, gf4, gf8])
        n = rng.randrange(2, 6)
        M = [[f.random_element(rng) for _ in range(n)] for _ in range(n)]
        cp = linalg.charpoly(f, M)
        sparse = {
            (i, j): M[i][j]
            for i in range(n)
            for j in range(n)
            if not f.is_zero(M[i][j])
        }
        assert linalg.sparse_second_coefficient(f, sparse) == cp[n - 2]
        assert linalg.sparse_trace(f, sparse) == cp[n - 1]


def test_packed_kernel_matches_generic(gf4, gf8):
    # the packed engine and list-row elimination give the same basis, the
    # one read off the reduced echelon form, on levels of every width
    rng = random.Random(5)
    wide = gf8.extend("c^5+c^2+1")
    assert wide.bits > 12
    for _ in range(200):
        f = rng.choice([GF2, gf4, gf8, wide])
        nr = rng.randrange(1, 7)
        nc = rng.randrange(1, 7)
        rows = [[f.random_element(rng) for _ in range(nc)] for _ in range(nr)]
        k1 = kernel(f, rows, nc)
        k2 = kernel_generic(f, rows, nc)
        assert k1 == k2
        for v in k1 + k2:
            assert all(f.is_zero(x) for x in mat_vec(f, rows, v))


def test_packed_echelon_early_stop(gf4):
    ech = linalg.PackedEchelon(gf4, 4)
    rows = [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0]]
    grew = [ech.insert(linalg.pack_row(gf4, r)) for r in rows]
    assert grew == [True, True, False]
    assert ech.rank == 2
    kern = ech.kernel()
    assert len(kern) == 2


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_packed_rows_match_list_rows(gf4, gf8, data):
    # every operation of the packed ring, read back as lists, against the
    # list ring over the same level
    f = data.draw(st.sampled_from([GF2, gf4, gf8]))
    P, L = linalg.row_ring(f), linalg.row_ring(ListRowLevel(f))
    assert isinstance(P, linalg.PackedRows) and isinstance(L, linalg.ListRows)
    n = data.draw(st.integers(2, 9))
    el = st.integers(0, f.order - 1)
    rows = [[data.draw(el) for _ in range(n)] for _ in range(data.draw(st.integers(1, 5)))]
    packed = [P.read(r) for r in rows]
    c = data.draw(el)
    i, j = data.draw(st.permutations(range(n)))[:2]
    for u, pu in zip(rows, packed):
        assert P.unpack(pu, n) == L.unpack(L.read(u), n) == u
        assert P.read(pu) == pu and P.sparse(P.items(pu), n) == pu
        assert P.items(pu) == L.items(u)
        assert [P.entry(pu, k) for k in range(n)] == u
        assert P.first(pu) == L.first(u)
        assert P.unpack(P.scale(pu, c), n) == L.scale(u, c)
        for v, pv in zip(rows, packed):
            assert P.unpack(P.axpy(pu, c, pv), n) == L.axpy(u, c, v)
            assert P.pivot_entries(i, j, pu, pv) == L.pivot_entries(i, j, u, v)
    placed = P.place(packed, i, n + i)
    assert [P.unpack(r, n + i) for r in placed] == L.place(rows, i, n + i)
    sup = [L.items(r) for r in rows]
    images = P.times_transpose(packed, [P.items(r) for r in packed], n)
    assert [P.unpack(w, len(rows)) for w in images] == L.times_transpose(rows, sup, n)
    assert L.times_transpose(rows, sup, n) == mat_mul(f, rows, [list(col) for col in zip(*rows)])


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_packed_kron_matches_list_kron(gf4, gf8, data):
    # row (i, j) of the packed product is one shifted copy of rb[j] per
    # nonzero entry of ra[i], scaled where that entry is not one; the list
    # ring multiplies entry by entry
    f = data.draw(st.sampled_from([GF2, gf4, gf8]))
    P, L = linalg.row_ring(f), linalg.row_ring(ListRowLevel(f))
    el = st.integers(0, f.order - 1)
    na, nb = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    ra = [[data.draw(el) for _ in range(na)] for _ in range(data.draw(st.integers(1, 4)))]
    rb = [[data.draw(el) for _ in range(nb)] for _ in range(data.draw(st.integers(1, 4)))]
    packed = P.kron([P.read(r) for r in ra], [P.read(r) for r in rb], nb)
    listed = L.kron(ra, rb, nb)
    assert [P.unpack(r, na * nb) for r in packed] == listed
    assert listed == [[f.mul(x, y) for x in a for y in b] for a in ra for b in rb]


def test_packed_kron_scales_entries_other_than_one(gf4):
    # a multi-entry row with an entry other than one, and a zero row
    P = linalg.row_ring(gf4)
    a, a2 = gf4.gen, gf4.mul(gf4.gen, gf4.gen)
    ra, rb = [[a, 1, 0], [0, 0, 0]], [[1, a2], [a, 0]]
    rows = P.kron([P.read(r) for r in ra], [P.read(r) for r in rb], 2)
    assert [P.unpack(r, 6) for r in rows] == [
        [a, 1, 1, a2, 0, 0], [a2, 0, a, 0, 0, 0], [0] * 6, [0] * 6,
    ]


def test_scale_tables_of_a_level_share_their_ints(gf8):
    # scaling by c != 0 permutes the chunk values, so every table of the
    # level holds the same int object for the same value
    t3, t5 = linalg._scale_table(gf8, 3), linalg._scale_table(gf8, 5)
    assert sorted(t3) == sorted(t5) == list(range(len(t3)))
    first = {v: id(v) for v in t3}
    assert all(id(v) == first[v] for v in t5)
    row = linalg.pack_row(gf8, [1, 2, 3, 4, 5, 6, 7, 0, 1])
    assert linalg.unpack_row(gf8, linalg.scale_row(gf8, row, 3), 9) == [
        gf8.mul(3, x) for x in [1, 2, 3, 4, 5, 6, 7, 0, 1]
    ]
