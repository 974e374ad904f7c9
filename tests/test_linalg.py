import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from t2forms import fields, linalg
from t2forms.fields import GF2

from support import (
    ListRowLevel, kernel, kernel_generic, mat_mul, mat_vec, solve_by_augmented_column,
    sparse_second_coefficient, sparse_trace,
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
        assert sparse_second_coefficient(f, sparse) == cp[n - 2]
        assert sparse_trace(f, sparse) == cp[n - 1]


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


def test_scale_row_scales_each_entry_of_a_gf8_row(gf8):
    row = linalg.pack_row(gf8, [1, 2, 3, 4, 5, 6, 7, 0, 1])
    assert linalg.unpack_row(gf8, linalg.scale_row(gf8, row, 3), 9) == [
        gf8.mul(3, x) for x in [1, 2, 3, 4, 5, 6, 7, 0, 1]
    ]


# -- scaling packed rows: the level's bit-plane scale ---------------------


@pytest.fixture(scope="module")
def scaling_levels(gf4, gf8):
    # GF(2^7) and GF(2^11) multiply by exp/log tables; GF(2^12), GF(2^13)
    # and GF(4^8), a relative tower, multiply without them
    return [
        GF2, gf4, gf8, GF2.extend("a^7+a+1"), GF2.extend("a^11+a^2+1"),
        GF2.extend("a^12+a^6+a^4+a+1"), GF2.extend("a^13+a^4+a^3+a+1"),
        gf4.extend(fields.find_irreducible(gf4, 8, random.Random(2)), "b"),
    ]


def _entries(F, rng, n):
    # a zero row now and then; otherwise random entries with many 0, 1
    # and order - 1 among them
    if rng.random() < 0.1:
        return [0] * n
    pool = (0, 1, F.order - 1)
    return [rng.choice(pool) if rng.random() < 0.3 else rng.randrange(F.order) for _ in range(n)]


@settings(max_examples=80, deadline=None, database=None)
@given(data=st.data())
def test_packed_scaling_matches_entrywise_products(scaling_levels, data):
    # scale_row, axpy, kron and times_transpose against field.mul entry by
    # entry, on rows of 0 to 1,300 entries and c in {0, 1, random}
    F = data.draw(st.sampled_from(scaling_levels))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    P, mul = linalg.row_ring(F), F.mul
    c = data.draw(st.sampled_from([0, 1, rng.randrange(F.order)]))
    n = data.draw(st.sampled_from([0, 1, 2, 9, rng.randrange(1301), 1300]))
    src, dst = _entries(F, rng, n), _entries(F, rng, n)
    want = [mul(c, x) for x in src]
    assert linalg.unpack_row(F, linalg.scale_row(F, P.read(src), c), n) == want
    assert P.unpack(P.scale(P.read(src), c), n) == want
    assert P.unpack(P.axpy(P.read(dst), c, P.read(src)), n) == [
        x ^ y for x, y in zip(dst, want)
    ]
    na, nb = rng.randint(1, 36), rng.randint(1, 36)
    ra = [_entries(F, rng, na) for _ in range(rng.randint(1, 3))]
    rb = [_entries(F, rng, nb) for _ in range(rng.randint(1, 3))]
    rows = P.kron([P.read(r) for r in ra], [P.read(r) for r in rb], nb)
    assert [P.unpack(r, na * nb) for r in rows] == [
        [mul(x, y) for x in a for y in b] for a in ra for b in rb
    ]
    # R has n + 2 rows; its column k is the next unit vector in order
    # (moved as a slice of v) or two random entries in random rows
    sup, b = [[] for _ in range(n + 2)], 0
    for k in range(n):
        if rng.random() < 0.5:
            sup[b].append((k, 1))
            b += 1
        else:
            for a in rng.sample(range(n + 2), 2):
                sup[a].append((k, rng.randrange(F.order)))
    vs = [_entries(F, rng, n) for _ in range(2)]
    images = P.times_transpose([P.read(v) for v in vs], sup, n)
    oracle = []
    for v in vs:
        w = [0] * (n + 2)
        for a, s in enumerate(sup):
            for k, x in s:
                w[a] ^= mul(x, v[k])
        oracle.append(w)
    assert [P.unpack(w, n + 2) for w in images] == oracle


@pytest.mark.parametrize("index", [1, 2, 5, 6, 7])
def test_one_scaling_makes_at_most_bits_products(scaling_levels, index, monkeypatch):
    # the bit-plane scale takes at most one product per bit of an entry,
    # so a scaling costs the same number of products at every row length
    F = scaling_levels[index]
    P, rng = linalg.row_ring(F), random.Random(index)
    counts = []
    mul = fields.Level.mul

    def counted(self, x, y):
        if self is F:
            counts[-1] += 1
        return mul(self, x, y)

    monkeypatch.setattr(fields.Level, "mul", counted)
    for n in (1, 9, 1300):
        row = P.read([rng.randrange(1, F.order) for _ in range(n)])
        c = rng.randrange(2, F.order)
        for op in (lambda: linalg.scale_row(F, row, c), lambda: P.scale(row, c),
                   lambda: P.axpy(row, c, row)):
            counts.append(0)
            op()
    assert len(set(counts)) == 1 and 0 < counts[0] <= F.bits, counts


def test_no_per_scalar_tables_remain():
    # packed rows scale by the level's polynomial ring, with no lookup
    # table per (level, scalar) and no per-chunk route beside it
    for name in ("_scale_table", "_chunk_conf"):
        assert not hasattr(linalg, name), name


def test_scaling_attaches_nothing_to_the_level():
    # hundreds of distinct scalars over a fresh table-free GF(2^12) leave
    # no per-scalar state: only the level's polynomial ring, whose one int
    # of chunk ones is as long as the longest row scaled
    F = GF2.extend("a^12+a^6+a^4+a+1")
    before = dict(vars(F))
    row = linalg.pack_row(F, [1, 2, 3, 4, 5, 6, 7, 4095])
    for c in range(2, 402):
        assert linalg.unpack_row(F, linalg.scale_row(F, row, c), 8) == [
            F.mul(c, x) for x in [1, 2, 3, 4, 5, 6, 7, 4095]
        ]
    after = vars(F)
    assert after.keys() == before.keys()
    assert {k for k in after if after[k] is not before[k]} <= {"_poly_ring"}
    assert F.poly_ring()._ones.bit_length() <= 9 * F.bits
