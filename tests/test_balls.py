import hashlib
import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

from thickset.balls import (
    CERTIFIED,
    CERTIFIED_ANALYTIC,
    FALSIFIED,
    FULL_BOUND,
    HALF_BOUND,
    L2,
    LINF,
    PERTURB_CLAMP,
    Ball,
    ExplicitTree,
    BallSystem,
    GridIfs,
    HexPacking,
    gap_lemma_rd_check,
    grid_ifs_example,
    h_upper,
    hex_centers,
    hex_packing_example,
    r_uniformity_check,
    SubsetThicknessReport,
    UNKNOWN,
    _farthest,
    common_denominator,
    first_touching_sibling,
    lattice_of,
    subset_thickness,
    validate_system,
    yavicoli_thickness,
)
from thickset import balls
from thickset.errors import InputError
from thickset.scalars import Interval, interval_sqrt, sqrt3

from oracles import (
    contains_point,
    disjoint_from,
    grid_farthest,
    reach_at,
    ref_child,
    ref_first_touching_sibling,
    ref_lattice,
)

GAMMA = Q(99999, 100000)


def snapshot(sys: BallSystem, depth: int) -> BallSystem:
    """Materialize a builder to an explicit tree of the given depth."""
    nodes = {(): sys.root}
    frontier = [()]
    for _ in range(depth):
        nxt = []
        for w in frontier:
            for i in range(sys.child_count(w)):
                nodes[w + (i,)] = sys.ball(w + (i,))
                nxt.append(w + (i,))
        frontier = nxt
    return BallSystem(sys.root, ExplicitTree(nodes))


def transform_system(sys: BallSystem, scale=Q(1), rotation=None,
                     shift=(Q(0), Q(0))) -> BallSystem:
    """Scaled, rotated (rational rotation pair (c, s) with c^2 + s^2 = 1),
    and translated copy of an explicit-tree system."""
    c, s = rotation or (Q(1), Q(0))
    assert scale > 0 and c * c + s * s == 1

    def move(b: Ball) -> Ball:
        x, y = b.center
        return Ball((scale * (c * x - s * y) + shift[0],
                     scale * (s * x + c * y) + shift[1]),
                    scale * b.radius, b.norm)

    nodes = {w: move(b) for w, b in sys.generator.nodes.items()}
    return BallSystem(nodes[()], ExplicitTree(nodes))


class TestBallPredicates:
    def test_linf_containment(self):
        big = Ball((Q(0), Q(0)), Q(1), "linf")
        assert big.contains_ball(Ball((Q(1, 2), Q(1, 2)), Q(1, 2), "linf"))
        assert not big.contains_ball(Ball((Q(3, 4), Q(0)), Q(1, 2), "linf"))

    def test_l2_touching_not_disjoint(self):
        a = Ball((Q(0), Q(0)), Q(1))
        b = Ball((Q(2), Q(0)), Q(1))
        assert not disjoint_from(a, b)
        assert disjoint_from(a, Ball((Q(2), Q(1, 100)), Q(1)))

    def test_l2_exact_via_squares(self):
        # 3-4-5 triangle: distance 5 exactly
        a = Ball((Q(0), Q(0)), Q(2))
        b = Ball((Q(3), Q(4)), Q(3))
        assert not disjoint_from(a, b)
        assert disjoint_from(a, Ball((Q(3), Q(4)), Q(29, 10)))


class TestGridBuilder:
    def test_construction(self):
        sys = grid_ifs_example(10, Q(19, 200), Q(1, 100), 1)
        assert len(sys.children(())) == 100
        validate_system(sys, 2)

    def test_constraint_violation(self):
        with pytest.raises(InputError):
            grid_ifs_example(10, Q(1, 10), Q(1, 100), 1)

    def test_seed_changes_centers_not_radii(self):
        s1 = grid_ifs_example(10, Q(19, 200), Q(1, 100), 1)
        s2 = grid_ifs_example(10, Q(19, 200), Q(1, 100), 2)
        w = (3, 7)
        b1, b2 = s1.ball(w), s2.ball(w)
        assert b1.radius == b2.radius
        assert b1.center != b2.center
        validate_system(s2, 2)
        # first generation is the unperturbed grid in both
        assert s1.ball((3,)) == s2.ball((3,))

    def test_determinism(self):
        s1 = grid_ifs_example(10, Q(19, 200), Q(1, 100), 5)
        s2 = grid_ifs_example(10, Q(19, 200), Q(1, 100), 5)
        assert s1.ball((1, 2, 3)) == s2.ball((1, 2, 3))

    @pytest.mark.parametrize("seed", [0, 7, 91, 2024])
    def test_validity_across_seeds(self, seed):
        validate_system(grid_ifs_example(10, Q(19, 200), Q(1, 100), seed), 2)

    def test_deep_children_contained(self):
        sys = grid_ifs_example(10, Q(19, 200), Q(1, 100), 3)
        rng = random.Random(0)
        for _ in range(50):
            w = tuple(rng.randrange(100) for _ in range(3))
            parent = sys.ball(w[:-1])
            assert parent.contains_ball(sys.ball(w))


class TestHexBuilder:
    def test_centers_file(self):
        cs = hex_centers()
        assert len(cs) == 85
        rho = Q(12179, 100000)
        assert cs[0] == (-rho, Q(0)) and cs[1] == (rho, Q(0))
        for x, y in cs:
            assert x * x + y * y <= (1 - rho) ** 2

    def test_designated_disjoint_for_gamma_below_one(self):
        sys = hex_packing_example(GAMMA)
        validate_system(sys, 2)
        kids = sys.children(())
        for j in (0, 1):
            for i, other in enumerate(kids):
                if i != j:
                    assert disjoint_from(kids[j], other)

    def test_gamma_one_designated_touch(self):
        sys = hex_packing_example(1)
        kids = sys.children(())
        assert not disjoint_from(kids[0], kids[1])

    def test_gamma_range(self):
        with pytest.raises(InputError):
            hex_packing_example(0)


def random_words(sys: BallSystem, rng: random.Random, count: int):
    """The root and ``count`` random words of length 1 to 3 that have
    children."""
    words = [()]
    while len(words) <= count:
        w = ()
        for _ in range(rng.randint(1, 3)):
            if not sys.child_count(w):
                break
            w += (rng.randrange(sys.child_count(w)),)
        if sys.child_count(w):
            words.append(w)
    return words


def explicit_tree(dim: int, depth: int, rng: random.Random) -> BallSystem:
    """A random explicit tree in R^dim: every ball has 2 or 3 children of
    a quarter of its radius, at random rational offsets inside it."""
    root = Ball((Q(1, 3),) * dim, Q(5, 2))
    nodes, frontier = {}, [((), root)]
    for _ in range(depth):
        nxt = []
        for w, b in frontier:
            for i in range(rng.randint(2, 3)):
                off = tuple(Q(rng.randint(-10, 10), 40) for _ in range(dim))
                kid = Ball(tuple(c + o * b.radius
                                 for c, o in zip(b.center, off)),
                           b.radius / 4)
                nodes[w + (i,)] = kid
                nxt.append((w + (i,), kid))
        frontier = nxt
    return BallSystem(root, ExplicitTree(nodes))


class TestBatchedChildren:
    """``Generator.children`` derives the children ``indices`` of a
    parent in one batch; the whole fan and each child asked for alone
    must give, child by child, what the per-child formula gives."""

    def check(self, sys: BallSystem, words):
        g = sys.generator
        for w in words:
            parent = ref_lattice(sys, w)
            assert sys.lattice(w) == parent
            want = [ref_child(g, parent, w, i)
                    for i in range(sys.child_count(w))]
            assert want
            assert g.children(parent, w, range(len(want))) == want
            assert sys.kids(w) == want
            assert [g.children(parent, w, (i,))
                    for i in range(len(want))] == [[kid] for kid in want]

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    def test_grid(self, seed):
        sys = grid_ifs_example(10, Q(19, 200), Q(1, 100), seed)
        self.check(sys, random_words(sys, random.Random(seed), 6))

    def test_grid_off_center_root(self):
        sys = BallSystem(Ball((Q(1, 3), Q(-2, 7)), Q(5, 3), LINF),
                         GridIfs(4, Q(1, 5), Q(1, 10), 3))
        self.check(sys, random_words(sys, random.Random(3), 6))

    @pytest.mark.parametrize("gamma", [Q(1), GAMMA, Q(1, 2)])
    def test_hex(self, gamma):
        sys = hex_packing_example(gamma)
        self.check(sys, random_words(sys, random.Random(5), 6))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_explicit_tree(self, dim):
        rng = random.Random(dim)
        sys = explicit_tree(dim, 3, rng)
        self.check(sys, random_words(sys, rng, 6))
        leaf = (0, 0, 0)
        assert sys.child_count(leaf) == 0
        assert sys.kids(leaf) == []

    @pytest.mark.parametrize("make", [
        lambda: grid_ifs_example(10, Q(19, 200), Q(1, 100), 1),
        lambda: hex_packing_example(GAMMA),
        lambda: explicit_tree(2, 2, random.Random(2))])
    def test_index_out_of_range(self, make):
        sys = make()
        for word in [(sys.child_count(()),), (0, -1)]:
            with pytest.raises(InputError, match="child index out of range"):
                sys.lattice(word)

    def test_one_sha256_per_fan(self, monkeypatch):
        # the grid hashes the key prefix of a parent once and copies the
        # state per child, where it hashed two full keys per child
        sys = grid_ifs_example(10, Q(19, 200), Q(1, 100), 1)
        calls, real = [], balls.hashlib.sha256
        monkeypatch.setattr(balls.hashlib, "sha256",
                            lambda *a: calls.append(a) or real(*a))
        assert len(sys.kids((3,))) == 100
        assert len(calls) == 1

    def test_hex_constant_once_per_bits(self, monkeypatch):
        balls._hex_q.cache_clear()
        calls, real = [], balls.sqrt3
        monkeypatch.setattr(balls, "sqrt3",
                            lambda bits: calls.append(bits) or real(bits))
        sys = hex_packing_example(GAMMA)
        first = [yavicoli_thickness(sys, bits) for bits in (64, 128)]
        for _ in range(3):
            assert [yavicoli_thickness(sys, bits)
                    for bits in (64, 128)] == first
        assert sorted(calls) == [64, 128]


def words_of_lengths(sys: BallSystem, rng: random.Random, lengths,
                     per_length: int = 3):
    """``per_length`` random words with children of each length in
    ``lengths``."""
    words = []
    for length in lengths:
        while sum(len(w) == length for w in words) < per_length:
            w = ()
            while len(w) < length and sys.child_count(w):
                w += (rng.randrange(sys.child_count(w)),)
            if len(w) == length and sys.child_count(w):
                words.append(w)
    return words


class TestCells:
    """A fan's cells: every child, as ``children`` derives it, has its
    cell's radius and a center within the widening e of its cell's in
    every coordinate, at the root, at depth 1 and at depth 3 and 4."""

    LENGTHS = (0, 1, 3, 4)

    def check(self, sys: BallSystem, words) -> int:
        """The largest offset seen, over the widening when it is
        positive."""
        worst = Q(0)
        for w in words:
            lat = sys.lattice(w)
            cells, e = sys.generator.cells(lat, w)
            kids = sys.kids(w, lat)
            assert len(cells) == len(kids) == sys.child_count(w) > 0
            assert e >= 0
            for cell, kid in zip(cells, kids):
                assert cell[-1] == kid[-1]
                off = max(abs(x - c) for x, c in zip(kid[:-1], cell[:-1]))
                assert off <= e
                if e:
                    worst = max(worst, Q(off, e))
            if not w:
                assert e == 0 and cells == kids  # the root is exact
        return worst

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_grid(self, seed):
        sys = grid_ifs_example(10, Q(19, 200), Q(1, 100), seed)
        self.check(sys, words_of_lengths(sys, random.Random(seed),
                                         self.LENGTHS))

    @pytest.mark.parametrize("hashes", [(0, 0), (2**64 - 1, 2**64 - 1),
                                        (0, 2**64 - 1), (2**64 - 1, 0)])
    def test_grid_extreme_hashes(self, monkeypatch, hashes):
        # random hashes never come near 0 or 2^64 - 1, where the
        # perturbation is largest; a hash of 0 reaches the widening
        monkeypatch.setattr(balls, "_hash_words",
                            lambda seed, word, children: (
                                hashes for _ in children))
        for sys in (grid_ifs_example(10, Q(19, 200), Q(1, 100), 1),
                    BallSystem(Ball((Q(1, 3), Q(-2, 7)), Q(5, 3), LINF),
                               GridIfs(4, Q(1, 5), Q(1, 10), 3))):
            worst = self.check(sys, words_of_lengths(
                sys, random.Random(4), self.LENGTHS))
            assert worst == (1 if 0 in hashes else 1 - Q(1, 2**63))

    @pytest.mark.parametrize("gamma", [Q(1), GAMMA, Q(1, 2)])
    def test_hex(self, gamma):
        sys = hex_packing_example(gamma)
        words = words_of_lengths(sys, random.Random(5), self.LENGTHS)
        self.check(sys, words)
        for w in words:
            lat = sys.lattice(w)
            assert sys.generator.cells(lat, w) == (sys.kids(w, lat), 0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_explicit_tree(self, dim):
        rng = random.Random(dim)
        sys = explicit_tree(dim, 5, rng)
        words = words_of_lengths(sys, rng, self.LENGTHS)
        self.check(sys, words)
        for w in words:
            lat = sys.lattice(w)
            assert sys.generator.cells(lat, w) == (sys.kids(w, lat), 0)


class TestFirstTouchingSibling:
    """The windowed scan finds the sibling that scanning every sibling
    finds."""

    @staticmethod
    def balls_of(sys: BallSystem, word, kids):
        s = sys.scale(len(word) + 1)
        return [sys.to_ball(k, s) for k in kids]

    @pytest.mark.parametrize("make", [
        lambda: grid_ifs_example(10, Q(19, 200), Q(1, 100), 1),
        lambda: grid_ifs_example(4, Q(1, 5), Q(1, 10), 2),
        lambda: hex_packing_example(GAMMA),
        lambda: hex_packing_example(Q(1)),
        lambda: explicit_tree(2, 3, random.Random(11))])
    def test_matches_full_scan(self, make):
        sys, rng = make(), random.Random(6)
        for w in words_of_lengths(sys, rng, (0, 2), 2):
            kids = sys.kids(w)
            ref = self.balls_of(sys, w, kids)
            for j in {0, 1, *rng.sample(range(len(kids)), 2)}:
                assert first_touching_sibling(kids, j, sys.norm) \
                    == ref_first_touching_sibling(ref, j)

    @pytest.mark.parametrize("norm", [L2, LINF])
    def test_reach_exactly_met_is_touching(self, norm):
        # sibling 2 is exactly one reach away along x, and sibling 1
        # a lattice unit farther; sibling 3 overlaps only in y's window
        kids = [(0, 0, 3), (10, 0, 6), (9, 0, 6), (0, 9, 6), (40, 40, 6)]
        assert first_touching_sibling(kids, 0, norm) == 2
        ref = [Ball((Q(x), Q(y)), Q(r), norm) for x, y, r in kids]
        assert ref_first_touching_sibling(ref, 0) == 2
        # a larger sibling widens the window: its reach counts too
        wide = [(0, 0, 1), (30, 0, 1), (21, 0, 20)]
        assert first_touching_sibling(wide, 0, norm) == 2
        assert first_touching_sibling(wide, 1, norm) == 2
        assert first_touching_sibling(kids, 4, norm) is None


def enumerated_ok(sys: BallSystem, depth: int) -> bool:
    """Reference check by enumeration: every child inside its parent down
    to ``depth``, and the designated hex children (gamma < 1) strictly
    disjoint from their siblings."""
    frontier = [()]
    for _ in range(depth):
        nxt = []
        for w in frontier:
            parent = sys.ball(w)
            for i, kid in enumerate(sys.children(w)):
                if not parent.contains_ball(kid):
                    return False
                nxt.append(w + (i,))
        frontier = nxt
    g = sys.generator
    if isinstance(g, HexPacking) and g.gamma < 1:
        kids = sys.children(())
        return all(disjoint_from(kids[j], other) for j in g.designated
                   for i, other in enumerate(kids) if i != j)
    return True


def accepted(sys: BallSystem, depth: int = 2) -> bool:
    try:
        validate_system(sys, depth)
    except InputError:
        return False
    return True


class TestValidateByArgument:
    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 4), share=st.integers(1, 99),
           seed=st.integers(0, 10**6))
    def test_grid_matches_enumeration(self, n, share, seed):
        # d takes a share of the 2/n per cell; rho follows from the
        # constraint 2*rho*n + n*d = 2
        d = Q(2, n) * Q(share, 100)
        sys = grid_ifs_example(n, Q(1, n) - d / 2, d, seed)
        depth = 3 if n <= 3 else 2
        assert accepted(sys, depth)
        assert enumerated_ok(sys, depth)

    @settings(max_examples=3, deadline=None)
    @given(gamma=st.fractions(Q(1, 100), 1, max_denominator=10**5))
    def test_hex_matches_enumeration(self, gamma):
        sys = hex_packing_example(gamma)
        assert accepted(sys) and enumerated_ok(sys, 2)

    def test_grid_needs_sup_norm_root(self):
        g = GridIfs(10, Q(19, 200), Q(1, 100), 1)
        sys = BallSystem(Ball((Q(0), Q(0)), Q(1)), g)
        assert not enumerated_ok(sys, 1)
        with pytest.raises(InputError, match="Euclidean root"):
            validate_system(sys)

    def test_hex_designated_touching_sibling(self):
        # as squares the hex children overlap their diagonal neighbours,
        # so the shrunk designated children still meet a sibling
        sys = BallSystem(Ball((Q(0), Q(0)), Q(1), LINF), HexPacking(GAMMA))
        with pytest.raises(InputError, match="not disjoint from sibling"):
            validate_system(sys)

    def test_hex_circle_escaping(self, monkeypatch):
        # the last bundled circle moved across the unit circle
        centers = [*hex_centers()[:-1], (Q(9, 10), Q(0))]
        monkeypatch.setattr(balls, "hex_centers", lambda: centers)
        sys = BallSystem(Ball((Q(0), Q(0)), Q(1)), HexPacking(Q(1)))
        assert not enumerated_ok(sys, 1)
        with pytest.raises(InputError, match="escapes the unit ball"):
            validate_system(sys)

    def test_explicit_child_escaping(self):
        b = Ball((Q(0), Q(0)), Q(1))
        tree = ExplicitTree({(0,): Ball((Q(0), Q(0)), Q(1, 2)),
                             (0, 0): Ball((Q(1, 2), Q(0)), Q(1, 4))})
        sys = BallSystem(b, tree)
        validate_system(sys, depth=1)  # the escape is below depth 1
        with pytest.raises(InputError, match="escapes parent at word"):
            validate_system(sys, depth=2)

    def test_explicit_root_entry_must_be_the_root(self):
        b = Ball((Q(0), Q(0)), Q(1))
        tree = ExplicitTree({(): Ball((Q(0), Q(0)), Q(2)), (0,): b})
        with pytest.raises(InputError, match="not the system's root"):
            validate_system(BallSystem(b, tree))

    @pytest.mark.parametrize("nodes, message", [
        ({(0,): Ball((Q(-1, 2), Q(0)), Q(1, 4)),
          (2,): Ball((Q(5), Q(0)), Q(1, 4))},
         r"explicit tree word \(2,\) skips child index 1 of word \(\)"),
        ({(0,): Ball((Q(0), Q(0)), Q(1, 2)),
          (0, 1): Ball((Q(0), Q(0)), Q(1, 4))},
         r"explicit tree word \(0, 1\) skips child index 0 of word \(0,\)"),
        ({(0, 0): Ball((Q(0), Q(0)), Q(1, 4))},
         r"explicit tree word \(0, 0\) skips child index 0 of word \(\)"),
    ])
    def test_explicit_numbering_gap_named(self, nodes, message):
        # a ball after a skipped index would sit outside the tree, and
        # the one at (2,) even outside the root
        sys = BallSystem(Ball((Q(0), Q(0)), Q(1)), ExplicitTree(nodes))
        with pytest.raises(InputError, match=f"^{message}$"):
            validate_system(sys, 3)

    def test_explicit_ball_at_empty_word_is_root(self):
        b = Ball((Q(0), Q(0)), Q(1))
        sys = BallSystem(b, ExplicitTree({(0,): b}))
        assert sys.ball(()) == b and sys.children(()) == [b]
        with pytest.raises(InputError, match="child index out of range"):
            sys.ball((0, 0))


class TestHUpper:
    def test_grid_root_closed_form(self):
        sys = grid_ifs_example(10, Q(19, 200), Q(1, 100), 1)
        assert h_upper(sys, ()).lo == Q(2, 181)
        assert h_upper(sys, (3,)).lo == Q(2, 181) * Q(19, 200)

    def test_hex_root_gamma_one(self):
        sys = hex_packing_example(1)
        rho = Q(12179, 100000)
        # (2-sqrt3)/sqrt3 * rho/(1+rho)
        expect = (2 * sqrt3() - 3) / 3 * rho / (1 + rho)
        got = h_upper(sys, ())
        assert got.lo <= expect.hi and expect.lo <= got.hi

    def test_ball_filling_chain_is_zero(self):
        b = Ball((Q(0), Q(0)), Q(1))
        tree = ExplicitTree({(): b, (0,): b})
        sys = BallSystem(b, tree)
        assert h_upper(sys, ()).hi == 0

    def test_dangling_node_rejected(self):
        b = Ball((Q(0), Q(0)), Q(1))
        small = Ball((Q(0), Q(0)), Q(1, 4))
        tree = ExplicitTree({(): b, (0,): small, (1,): small,
                             (0, 0): Ball((Q(0), Q(0)), Q(1, 16))})
        sys = BallSystem(b, tree)
        with pytest.raises(InputError):
            validate_system(sys, depth=2)  # word (1,) dangles

    def test_explicit_tree_slack_in_3d(self):
        # the bottom pole (0, 0, -1) is 2 - 2/10 = 9/5 from the only child
        # ball, which holds the generated set, so the slack is at least
        # 9/5 and the thickness at most (1/10) / (9/5) = 1/18; a grid over
        # the first two coordinates once bounded the slack by 1.525
        root = Ball((Q(0), Q(0), Q(0)), Q(1))
        child = Ball((Q(0), Q(0), Q(9, 10)), Q(1, 10))
        sys = BallSystem(root, ExplicitTree({(0,): child}))
        assert h_upper(sys, ()).hi >= Q(9, 5)
        assert yavicoli_thickness(sys).lower_bound.hi <= Q(1, 18)


class TestClosedFormsScaleWithRoot:
    # h is a length, so it scales with the root radius; thickness is a
    # ratio and does not
    def test_grid(self):
        unit = grid_ifs_example(10, Q(19, 200), Q(1, 100), 1)
        big = BallSystem(Ball((Q(0), Q(0)), Q(2), LINF), unit.generator)
        assert h_upper(big, ()).lo == Q(4, 181)
        assert h_upper(big, (3,)) == h_upper(unit, (3,)) * 2
        assert yavicoli_thickness(big).lower_bound == \
            yavicoli_thickness(unit).lower_bound

    def test_hex(self):
        unit = hex_packing_example(GAMMA)
        big = BallSystem(Ball((Q(1), Q(-2)), Q(3)), unit.generator)
        for w in ((), (0,), (2, 5)):
            assert h_upper(big, w) == h_upper(unit, w) * 3
        assert yavicoli_thickness(big).lower_bound == \
            yavicoli_thickness(unit).lower_bound


class TestYavicoliThickness:
    def test_grid_exact(self):
        sys = grid_ifs_example(10, Q(19, 200), Q(1, 100), 1)
        rep = yavicoli_thickness(sys)
        assert rep.lower_bound.lo == Q(3439, 400)  # = 8.5975 exactly
        assert rep.tail_certificate == "self_similar_closed_form"

    def test_hex_gamma_one(self):
        rep = yavicoli_thickness(hex_packing_example(1))
        assert abs(rep.lower_bound.mid - Q("7.25137")) < Q(1, 1000)

    def test_hex_gamma_small(self):
        rep = yavicoli_thickness(hex_packing_example(GAMMA))
        assert abs(rep.lower_bound.mid - Q("7.25077")) < Q(1, 1000)

    def test_grid_threshold_chain(self):
        # certified inequality: grid thickness clears the progression
        # threshold 2/(1 - 4 rho - 2 d) = 10/3
        rho, d = Q(19, 200), Q(1, 100)
        assert rho * (1 - rho) / d >= 2 / (1 - 4 * rho - 2 * d)
        assert 2 / (1 - 4 * rho - 2 * d) == Q(10, 3)

    def test_scale_translate_invariance_exact(self):
        base = snapshot(grid_ifs_example(4, Q(1, 8), Q(1, 4), 2), 2)
        t0 = yavicoli_thickness(base).lower_bound.lo
        rng = random.Random(1)
        for _ in range(5):
            sc = Q(rng.randint(1, 5), rng.randint(1, 5))
            sh = (Q(rng.randint(-9, 9), 3), Q(rng.randint(-9, 9), 3))
            moved = transform_system(base, scale=sc, shift=sh)
            assert yavicoli_thickness(moved).lower_bound.lo == t0

    def test_rotation_invariance_l2(self):
        base = snapshot(hex_packing_example(1), 1)
        t0 = yavicoli_thickness(base).lower_bound.lo
        rot = transform_system(base, rotation=(Q(3, 5), Q(4, 5)))
        t1 = yavicoli_thickness(rot).lower_bound.lo
        # the farthest-point boxes are axis-aligned, so the bounds agree
        # only up to the enclosure width
        assert abs(t1 - t0) <= t0 * Q(1, 4)


class TestRUniformity:
    def test_grid_analytic(self):
        sys = grid_ifs_example(10, Q(19, 200), Q(1, 100), 1)
        res = r_uniformity_check(sys, Q(1, 5))
        assert res.status == CERTIFIED_ANALYTIC

    def test_hex_analytic(self):
        res = r_uniformity_check(hex_packing_example(1), Q(26243, 100000))
        assert res.status == CERTIFIED_ANALYTIC

    @pytest.mark.parametrize("sys, words", [
        (grid_ifs_example(10, Q(19, 200), Q(1, 100), 1), [(), (0,), (37,)]),
        (hex_packing_example(1), [(), (0,), (5,)]),
        (hex_packing_example(Q(99999, 100000)), [(), (0,), (5,)]),
    ])
    def test_density_constant_certified_from_above(self, sys, words):
        # the kernel certifies each builder's analytic constant at the
        # root and at depth-1 words; the constant is what --r auto picks
        r = Interval.point(sys.generator.density().hi)
        for word in words:
            assert balls._uniform_word(sys, word, r).status == CERTIFIED

    @pytest.mark.parametrize("r", [
        ((2 * sqrt3() + 3) / 3 * HexPacking.rho).hi,  # the old closed form
        Q(13121049, 50000000),  # what --r auto picked from it
    ])
    def test_hex_below_the_kernel_threshold_falsified(self, r):
        sys = hex_packing_example(Q(99999, 100000))
        res = r_uniformity_check(sys, r)
        assert res.status == FALSIFIED
        # independently, in plain rationals: the counterexample ball has
        # radius r (the root's being 1), lies inside the root and holds
        # none of the root's 85 children
        (x, y), rad = res.counterexample.center, res.counterexample.radius
        assert rad == r and x * x + y * y <= (1 - rad) ** 2
        for kid in sys.children(()):
            (cx, cy), slack = kid.center, rad - kid.radius
            assert slack < 0 or (x - cx) ** 2 + (y - cy) ** 2 > slack ** 2
        assert r_uniformity_check(sys, Q(26243, 100000)).status == \
            CERTIFIED_ANALYTIC

    def test_tiny_r_falsified(self):
        sys = grid_ifs_example(10, Q(19, 200), Q(1, 100), 1)
        res = r_uniformity_check(sys, Q(19, 2000))
        assert res.status == FALSIFIED
        assert res.counterexample is not None

    def test_builder_below_its_constant_is_unknown(self):
        # every sub-ball checked at the root and the depth-1 words holds a
        # child, but the levels below are not checked
        sys = grid_ifs_example(3, Q(1, 4), Q(1, 6), 1)
        assert r_uniformity_check(sys, Q(13, 20)).status == UNKNOWN

    def test_depth_one_tree_certified(self):
        # a sub-ball of radius 9/10 inside the unit ball has its center
        # within 1/10 of the origin, so it holds a child of radius 1/4
        # centered 1/2 away; a probe inside a leaf once falsified this
        kids = {(0,): Ball((Q(1, 2), Q(0)), Q(1, 4)),
                (1,): Ball((Q(-1, 2), Q(0)), Q(1, 4))}
        sys = BallSystem(Ball((Q(0), Q(0)), Q(1)), ExplicitTree(kids))
        assert r_uniformity_check(sys, Q(9, 10)).status == CERTIFIED

    def test_3d_counterexample(self):
        kids = {(0,): Ball((Q(0), Q(0), Q(9, 10)), Q(1, 10)),
                (1,): Ball((Q(0), Q(0), Q(-9, 10)), Q(1, 10))}
        sys = BallSystem(Ball((Q(0), Q(0), Q(0)), Q(1)), ExplicitTree(kids))
        res = r_uniformity_check(sys, Q(1, 5))
        assert res.status == FALSIFIED
        assert res.counterexample == Ball((Q(0), Q(0), Q(0)), Q(1, 5))


def kernel(ball: Ball, targets, **stop):
    """``_farthest`` over ``ball`` against (center, weight) targets of
    rationals, all brought to one lattice scale."""
    s = math.lcm(common_denominator(ball),
                 *(q.denominator for c, w in targets for q in (*c, w)))
    rows = [(*(x.numerator * (s // x.denominator) for x in c),
             w.numerator * (s // w.denominator)) for c, w in targets]
    return _farthest(lattice_of(ball, s), rows, s, ball.norm, **stop)


def one_level(sys: BallSystem, word, **stop):
    """The kernel with w_i = -r_i over the children of ``word``: the
    largest distance from a point of the ball to its children, a lower
    bound on its covering slack."""
    ball = sys.ball(word)
    return kernel(ball, [(b.center, -b.radius) for b in sys.children(word)],
                  **stop)


def sampled_slack(sys: BallSystem, word, depth: int, seed: int,
                  n: int = 1000) -> bool:
    """Draw ``n`` points of ball ``word`` on a 2^-16 grid and descend
    greedily toward each, to the nearest child center at every level,
    down to a ball ``depth - 1`` levels below.  True if every point lies
    within 2*h_upper(root) + that ball's radius of its center, a sampled
    check of the covering slack of the subtree.  Exact: each level's
    nearest child is found in integers on one lattice scale."""
    child = sys.ball(word)
    grid = math.lcm(common_denominator(child),
                    child.radius.denominator * 2**16)
    levels = {}

    def nearest(w, p):
        if w not in levels:
            kids = sys.children(w)
            s = math.lcm(grid, *(q.denominator for b in kids
                                 for q in b.center))
            levels[w] = s, [lattice_of(b, s)[:-1] for b in kids]
        s, rows = levels[w]
        x = [q.numerator * (s // q.denominator) for q in p]
        return min(range(len(rows)),
                   key=lambda i: sum((a - b) ** 2
                                     for a, b in zip(x, rows[i])))

    rng = random.Random(seed)
    h2 = 2 * h_upper(sys, ()).hi
    checked = 0
    while checked < n:
        dx = 2 * Q(rng.randint(0, 2**16), 2**16) - 1
        dy = 2 * Q(rng.randint(0, 2**16), 2**16) - 1
        p = (child.center[0] + child.radius * dx,
             child.center[1] + child.radius * dy)
        if not contains_point(child, p):
            continue
        w = word
        for _ in range(depth - 1):
            w = w + (nearest(w, p),)
        b = sys.ball(w)
        bound = h2 + b.radius
        # |p - c_b| <= bound  <=>  |p - c_b|^2 <= bound^2
        if sum((a - c) ** 2 for a, c in zip(p, b.center)) > bound ** 2:
            return False
        checked += 1
    return True


small = st.fractions(-2, 2, max_denominator=12)


class TestFarthestKernel:
    @settings(max_examples=30, deadline=None)
    @given(dim=st.sampled_from([2, 3]), norm=st.sampled_from([L2, LINF]),
           center=st.lists(small, min_size=3, max_size=3),
           radius=st.fractions(Q(1, 4), 2, max_denominator=12),
           kids=st.lists(st.tuples(st.lists(small, min_size=3, max_size=3),
                                   st.fractions(0, 1, max_denominator=12),
                                   st.sampled_from([1, -1])),
                         min_size=1, max_size=6))
    def test_encloses_dense_grid_maximum(self, dim, norm, center, radius,
                                         kids):
        # a random tree of depth 1: the root and its children, with
        # weights +r_i (reach of a child) or -r_i (distance to it)
        ball = Ball(tuple(center[:dim]), radius, norm)
        targets = [(tuple(c[:dim]), sign * r) for c, r, sign in kids]
        lo, hi, x = kernel(ball, targets, width=radius / 16)
        assert hi - lo <= radius / 16
        assert contains_point(ball, x)
        assert reach_at(x, targets, norm) >= float(lo) - 1e-9
        seen, mesh = grid_farthest(ball, targets, 33 if dim == 2 else 13)
        assert seen <= float(hi) + 1e-9
        assert float(lo) <= seen + mesh + 1e-9

    @pytest.mark.parametrize("word", [(), (3, 7)])
    def test_grid_closed_form_above_one_level_slack(self, word):
        sys = grid_ifs_example(10, Q(19, 200), Q(1, 100), 1)
        bound = h_upper(sys, word).hi
        lo, _, _ = one_level(sys, word, threshold=bound)
        assert lo <= bound

    @pytest.mark.parametrize("gamma", [Q(1), GAMMA])
    def test_hex_root_slack_above_a_thirtieth(self, gamma):
        # the crescent between the outer circles and the root circle: the
        # hex closed form, about 0.0168, stays below this bound (see
        # ROADMAP item 12)
        lo, _, x = one_level(hex_packing_example(gamma), (),
                             threshold=Q(1, 30))
        assert lo >= Q(1, 30)
        assert x[0] ** 2 + x[1] ** 2 <= 1


class TestSubsetThickness:
    def test_grid_full_bound(self):
        # child-level slack 19/18100 is below the sibling distance 1/100,
        # so the full parent bound carries over
        sys = grid_ifs_example(10, Q(19, 200), Q(1, 100), 1)
        rep = subset_thickness(sys, 0)
        assert h_upper(sys, (0,)).hi == Q(19, 18100)
        assert rep.kind == FULL_BOUND
        assert rep.bound.lo == Q(3439, 400)

    def test_hex_half_bound(self):
        # designated child nearly touches its siblings, so the covering
        # slack exceeds the sibling gap and only the halved bound holds
        sys = hex_packing_example(GAMMA)
        rep = subset_thickness(sys, 0)
        assert rep.kind == HALF_BOUND
        assert rep.bound.lo >= (Q("7.25077") - Q(1, 1000)) / 2

    def test_overlapping_child_rejected(self):
        sys = hex_packing_example(1)
        with pytest.raises(InputError):
            subset_thickness(sys, 0)

    @pytest.mark.parametrize("sys, want", [
        (hex_packing_example(1 - Q(3, 2**20)), (1, 2)),
        (grid_ifs_example(10, Q(19, 200), Q(1, 100), 1), (0, 1))],
        ids=["hex", "grid"])
    def test_only_the_slack_bounds_read(self, monkeypatch, sys, want):
        # the hex thickness reads the root's slack bound and the grid's
        # none; the subset bound adds the designated child's, and no
        # bound is computed that no verdict reads
        gen, calls = type(sys.generator), []
        real = gen.h_upper
        monkeypatch.setattr(gen, "h_upper", lambda self, *args:
                            calls.append(args) or real(self, *args))
        yavicoli_thickness(sys)
        thickness_calls = len(calls)
        subset_thickness(sys, 0)
        assert (thickness_calls, len(calls) - thickness_calls) == want

    def test_explicit_tree_runs_one_kernel_for_the_child(self, monkeypatch):
        # on a table every slack bound is a farthest-point run: the subset
        # bound runs the thickness's and one more, for the child
        sys = snapshot(grid_ifs_example(2, Q(49, 100), Q(1, 50), 1), 2)
        runs = []
        monkeypatch.setattr(balls, "_farthest", lambda *args, **kw:
                            runs.append(args) or _farthest(*args, **kw))
        yavicoli_thickness(sys)
        thickness_runs = len(runs)
        subset_thickness(sys, 0)
        assert thickness_runs == 5  # the root and its four children
        assert len(runs) == 2 * thickness_runs + 1

    def test_bound_at_least_half_for_builders(self):
        for sys in (grid_ifs_example(10, Q(19, 200), Q(1, 100), 1),
                    hex_packing_example(GAMMA)):
            tau = yavicoli_thickness(sys).lower_bound
            rep = subset_thickness(sys, 0)
            assert rep.bound.lo >= tau.lo / 2


class TestSampledSubsetSlack:
    def test_designated_child_points_near_subset(self):
        # sampled points x in the designated child ball: the distance to
        # the subset cover is within 2*h_upper(root) plus the cover slack
        assert sampled_slack(hex_packing_example(GAMMA), (0,), 3, seed=7)


class TestGapLemmaRd:
    def test_hex_pair_holds(self):
        sys = hex_packing_example(1)
        rep = gap_lemma_rd_check(sys, sys, Q(26243, 100000))
        assert rep.verdict == "hypotheses_hold"
        assert rep.thickness_product_ok and rep.root_meets_shrunk_ball
        # oracle arithmetic: 7.25137^2 = 52.58 >= 1/(1-2r)^2 = 4.43
        assert rep.details["thickness_product"].lo > 50
        assert rep.details["thickness_required"].hi < 5

    def test_disjoint_roots_fail(self):
        sys = hex_packing_example(1)
        moved = snapshot(sys, 1)
        moved = transform_system(moved, shift=(Q(10), Q(0)))
        rep = gap_lemma_rd_check(moved, sys, Q(1, 5))
        assert rep.verdict == "fail"
        assert rep.root_meets_shrunk_ball is False

    def test_tiny_first_root_fails_ratio(self):
        sys = hex_packing_example(1)
        small = transform_system(snapshot(sys, 1), scale=Q(1, 100))
        rep = gap_lemma_rd_check(small, sys, Q(1, 5))
        assert rep.radius_ratio_ok is False
        assert rep.verdict == "fail"

    def test_r_range(self):
        sys = hex_packing_example(1)
        with pytest.raises(InputError):
            gap_lemma_rd_check(sys, sys, Q(1, 2))

    @pytest.mark.parametrize("depth, meets", [(1, None), (3, True)])
    def test_shrunk_ball_met_below_the_first_level(self, depth, meets):
        # at r = 45/100 the shrunk root has radius 1/10: no root child
        # lies inside it, and a grandchild does
        sys = hex_packing_example(GAMMA)
        rep = gap_lemma_rd_check(sys, sys, Q(45, 100), depth)
        assert rep.root_meets_shrunk_ball is meets


# -- lattice form ------------------------------------------------------------


def _hash_unit(seed, word, child, coord):
    key = f"{seed}|{','.join(map(str, word))}|{child}|{coord}"
    v = int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")
    return 2 * Q(v, 2**64) - 1


def grid_child(g: GridIfs, parent: Ball, word, i) -> Ball:
    """The rational grid child that the lattice form replaced."""
    pitch = 2 * g.rho + g.d_spacing
    start = -1 + g.d_spacing / 2 + g.rho
    tx, ty = start + (i % g.n) * pitch, start + (i // g.n) * pitch
    if word:
        clamp = (g.d_spacing / 2) * PERTURB_CLAMP
        tx += clamp * _hash_unit(g.seed, word, i, 0)
        ty += clamp * _hash_unit(g.seed, word, i, 1)
    return Ball((parent.center[0] + parent.radius * tx,
                 parent.center[1] + parent.radius * ty),
                parent.radius * g.rho, parent.norm)


def hex_child(h: HexPacking, parent: Ball, word, i) -> Ball:
    """The rational hex child that the lattice form replaced."""
    hx, hy = hex_centers()[i]
    r = parent.radius * h.rho
    if not word and i in h.designated:
        r *= h.gamma
    return Ball((parent.center[0] + parent.radius * hx,
                 parent.center[1] + parent.radius * hy), r, parent.norm)


def agrees_with_reference(sys: BallSystem, child, word) -> None:
    ball = sys.root
    for k in range(len(word) + 1):
        assert sys.ball(word[:k]) == ball
        if k < len(word):
            ball = child(sys.generator, ball, word[:k], word[k])
    assert sys.children(word) == [child(sys.generator, ball, word, i)
                                  for i in range(sys.child_count(word))]


coords = st.fractions(-5, 5, max_denominator=60)
radii = st.fractions(Q(1, 60), 5, max_denominator=60)


class TestLatticeMatchesRationalChildren:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 4), share=st.integers(1, 99),
           seed=st.integers(0, 10**6), cx=coords, cy=coords, r=radii,
           word=st.lists(st.integers(0, 15), max_size=5))
    def test_grid(self, n, share, seed, cx, cy, r, word):
        d = Q(2, n) * Q(share, 100)
        g = GridIfs(n, Q(1, n) - d / 2, d, seed)
        sys = BallSystem(Ball((cx, cy), r, LINF), g)
        agrees_with_reference(sys, grid_child,
                              tuple(i % (n * n) for i in word))

    @settings(max_examples=10, deadline=None)
    @given(gamma=st.fractions(Q(1, 100), 1, max_denominator=10**5),
           cx=coords, cy=coords, r=radii,
           word=st.lists(st.one_of(st.sampled_from([0, 1]),
                                   st.integers(0, 84)), max_size=5))
    def test_hex(self, gamma, cx, cy, r, word):
        sys = BallSystem(Ball((cx, cy), r), HexPacking(gamma))
        agrees_with_reference(sys, hex_child, tuple(word))

    def test_explicit_tree(self):
        # levels mix denominators, so each level's scale is a proper lcm
        nodes = {(0,): Ball((Q(1, 3), Q(-1, 4)), Q(1, 5)),
                 (1,): Ball((Q(-2, 7), Q(1, 2)), Q(1, 6)),
                 (0, 0): Ball((Q(1, 3), Q(-1, 5)), Q(1, 11)),
                 (0, 1): Ball((Q(3, 8), Q(-1, 4)), Q(1, 13)),
                 (1, 0): Ball((Q(-2, 7), Q(5, 9)), Q(1, 17))}
        sys = BallSystem(Ball((Q(0), Q(0)), Q(3, 2)), ExplicitTree(nodes))

        def table_child(tree, parent, word, i):
            return tree.nodes[word + (i,)]

        for word in nodes:
            agrees_with_reference(sys, table_child, word)


def subset_thickness_reference(sys: BallSystem, child_index: int,
                               bits: int = 128) -> SubsetThicknessReport:
    """The rational subset-thickness code that the lattice form replaced:
    one gap enclosure per sibling."""
    kids = sys.children(())
    if not (0 <= child_index < len(kids)):
        raise InputError("child index out of range")
    child = kids[child_index]
    i = next((i for i, other in enumerate(kids)
              if i != child_index and not disjoint_from(child, other)), None)
    if i is not None:
        raise InputError(f"designated child intersects sibling {i}")

    def gap_to(other: Ball) -> Interval:
        if sys.norm == LINF:
            d = Interval.point(max(abs(a - b) for a, b in
                                   zip(child.center, other.center)))
        else:
            sq = sum((a - b) ** 2 for a, b in zip(child.center, other.center))
            d = interval_sqrt(Interval.point(sq), bits)
        d = d - (child.radius + other.radius)
        return Interval(max(d.lo, Q(0)), max(d.hi, Q(0)))

    gaps = [gap_to(other) for i, other in enumerate(kids) if i != child_index]
    min_gap = Interval(min(g.lo for g in gaps), min(g.hi for g in gaps))
    tau = yavicoli_thickness(sys, bits).lower_bound
    if h_upper(sys, (child_index,), bits).certainly_lt(min_gap):
        return SubsetThicknessReport(FULL_BOUND, tau, min_gap)
    return SubsetThicknessReport(HALF_BOUND, tau / 2, min_gap)


def same_outcome(sys: BallSystem, child_index: int, bits: int = 128) -> None:
    def run(f):
        try:
            return repr(f(sys, child_index, bits))
        except InputError as e:
            return str(e)

    assert run(subset_thickness) == run(subset_thickness_reference)


class TestSubsetThicknessMatchesReference:
    @settings(max_examples=8, deadline=None)
    @given(gamma=st.fractions(Q(1, 100), 1, max_denominator=10**5),
           child=st.one_of(st.sampled_from([0, 1]), st.integers(0, 84)))
    def test_hex(self, gamma, child):
        same_outcome(hex_packing_example(gamma), child)

    @settings(max_examples=5, deadline=None)
    @given(n=st.integers(2, 10), seed=st.integers(0, 10**6),
           child=st.integers(0, 99))
    def test_grid(self, n, seed, child):
        d = Q(1, 50)
        same_outcome(grid_ifs_example(n, Q(1, n) - d / 2, d, seed),
                     child % (n * n))

    @settings(max_examples=40, deadline=None)
    @given(norm=st.sampled_from([L2, LINF]),
           r0=st.fractions(Q(1, 3), 3, max_denominator=3),
           sibs=st.lists(st.tuples(st.integers(-12, 12),
                                   st.integers(-12, 12),
                                   st.integers(1, 4), st.integers(1, 7)),
                         min_size=1, max_size=5),
           bits=st.integers(1, 4))
    # a sibling whose gap exceeds the least upper end found first by less
    # than the enclosure width still sets the lower minimum, so the
    # exclusion test needs the 2^-(bits+1) slack
    @example(norm=L2, r0=Q(1, 3), sibs=[(-11, -10, 2, 6), (-3, 1, 1, 1)],
             bits=1)
    # and one whose center lies beyond that upper end can still be the
    # nearer ball, so it needs the radii
    @example(norm=L2, r0=Q(1),
             sibs=[(-1, -7, 4, 2), (6, 11, 2, 7), (11, -8, 3, 4)], bits=4)
    def test_near_ties_at_low_precision(self, norm, r0, sibs, bits):
        # coarse enclosures, each rounded on its own denominator, around
        # nearly tied gaps
        nodes = {(0,): Ball((Q(0), Q(0)), r0, norm)}
        for j, (x, y, r, den) in enumerate(sibs, start=1):
            nodes[(j,)] = Ball((Q(x, den), Q(y, den)), Q(r, den), norm)
        sys = BallSystem(Ball((Q(0), Q(0)), Q(40), norm),
                         ExplicitTree(nodes))
        same_outcome(sys, 0, bits)
