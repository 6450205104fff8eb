"""The identity suite: spec-level examples, error paths, and witnesses."""

import collections
import functools
import hashlib
import itertools
import json
import math
import re
from fractions import Fraction

import pytest

from bernkit import identities
from bernkit.bernstein import bernstein_basis
from bernkit.identities import (
    SUITE_IDS,
    _basis_value_table,
    grid_nodes,
    mutation_slots,
    run_identity,
    suite_params,
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
from bernkit.polynomials import Poly1, Poly2, scalar_str
from bernkit.report import compare_poly

# Each suite identity's public check, called with a parameter tuple as
# keywords and `mutate`.
PUBLIC_CHECKS = {
    "sum": verify_sum,
    "alternating-sum": verify_alternating_sum,
    "subdivision-product": functools.partial(verify_subdivision, "product"),
    "subdivision-affine": functools.partial(verify_subdivision, "affine"),
    "subdivision-trivariate": functools.partial(verify_subdivision, "trivariate"),
    "monomial": verify_monomial,
    "derivative": verify_derivative,
    "recurrence": verify_recurrence,
    "raise-x": functools.partial(verify_degree_ops, "raise-x"),
    "raise-1mx": functools.partial(verify_degree_ops, "raise-1mx"),
    "elevation": functools.partial(verify_degree_ops, "elevation"),
    "product": verify_product,
    "two-point": verify_two_point,
    "tg1": functools.partial(verify_finite_sum, "tg1"),
    "tg2": functools.partial(verify_finite_sum, "tg2"),
    "tg5": functools.partial(verify_finite_sum, "tg5"),
}


class TestSum:
    def test_degree_zero(self):
        assert verify_sum(0).passed

    def test_small_degrees(self):
        for n in range(16):
            report = verify_sum(n)
            assert report.passed and report.witness is None

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            verify_sum(-1)

    def test_dropped_term_fails_with_witness(self):
        # Leaving out the k=0 term makes the sides differ by (1-x)^3,
        # visible at the constant monomial: 0 on the left, 1 on the right.
        n = 3
        lhs = Poly1()
        for k in range(1, n + 1):
            lhs = lhs + bernstein_basis(n, k)
        witness = compare_poly(lhs, Poly1([1]))
        assert witness is not None
        assert witness.monomial == {"x": 0}
        assert witness.lhs == "0/1"
        assert witness.rhs == "1/1"
        # In two variables the witness is the first differing monomial in
        # graded lexicographic order (x^2 before y^3), named by both exponents.
        lhs2 = Poly2([[0, 0, 0, 1], [0], [Fraction(1, 2)]])  # y^3 + x^2/2
        witness = compare_poly(lhs2, Poly2([[0, 0, 0, 2]]))
        assert witness.monomial == {"x": 2, "y": 0}
        assert (witness.lhs, witness.rhs) == ("1/2", "0/1")
        assert compare_poly(lhs2, lhs2) is None


class TestAlternatingSum:
    def test_degree_one_closed_form(self):
        lhs = bernstein_basis(1, 0) - bernstein_basis(1, 1)
        assert lhs == Poly1([1, -2])
        assert verify_alternating_sum(1).passed

    def test_small_degrees(self):
        for n in range(16):
            assert verify_alternating_sum(n).passed


class TestSubdivision:
    def test_product_variant_degree_one(self):
        # Both sides equal 1 - xy when n=1, j=0: through the public entry
        # point and through the registry's check with an unbumping `bump`.
        assert verify_subdivision("product", 1, 0).passed
        check = identities._SUITE["subdivision-product"].check
        assert check(lambda base, slot: base, n=1, j=0) is None

    def test_product_variant_collapses_at_j_equals_n(self):
        for n in range(1, 7):
            assert verify_subdivision("product", n, n).passed

    def test_affine_variant_j_zero(self):
        assert verify_subdivision("affine", 2, 0).passed

    def test_all_variants_small(self):
        for variant in ("product", "affine", "trivariate"):
            for n in range(5):
                for j in range(n + 1):
                    assert verify_subdivision(variant, n, j).passed, (variant, n, j)

    def test_trivariate_uses_grid_method(self):
        rep = verify_subdivision("trivariate", 3, 1)
        assert rep.method == "grid"
        assert verify_subdivision("product", 3, 1).method == "symbolic"

    def test_out_of_range_j_rejected(self):
        with pytest.raises(ValueError):
            verify_subdivision("product", 2, 3)
        with pytest.raises(ValueError):
            verify_subdivision("affine", 2, -1)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            verify_subdivision("diagonal", 2, 1)

    def test_grid_failure_carries_point_witness(self):
        rep = verify_subdivision("trivariate", 2, 1, mutate="scale")
        assert not rep.passed
        assert rep.witness.point is not None
        assert set(rep.witness.point) == {"x", "y", "z"}

    # Entry 0 is the suite's run_identity, entry 1 the direct verify_subdivision.
    @pytest.mark.parametrize("entry", [0, 1])
    def test_trivariate_witness_is_first_differing_grid_point(self, entry):
        # Both sides of B_j^n((1-y)x + yz)
        #   = sum_k B_k^n(y) sum_p B_p^{n-k}(x) B_{j-p}^k(z),
        # evaluated directly in Fractions; either entry point must report the
        # first grid point, in x, y, z loop order, where they differ.
        check = (
            lambda n, j, slot: run_identity("subdivision-trivariate", {"n": n, "j": j}, mutate=slot),
            lambda n, j, slot: verify_subdivision("trivariate", n, j, mutate=slot),
        )[entry]

        @functools.cache
        def b(m, p, t):
            return math.comb(m, p) * t**p * (1 - t) ** (m - p) if 0 <= p <= m else 0

        for n in range(6):
            for j in range(n + 1):
                params = {"n": n, "j": j}
                nodes = grid_nodes(n)
                for slot in (None, *mutation_slots("subdivision-trivariate", params)):
                    scale = 2 if slot == "scale" else 1
                    term_c = [2 if slot == f"term:{k}" else 1 for k in range(n + 1)]
                    expected = None
                    for x, y, z in itertools.product(nodes, repeat=3):
                        lhs = b(n, j, (1 - y) * x + y * z)
                        rhs = scale * sum(
                            term_c[k]
                            * b(n, k, y)
                            * sum(b(n - k, p, x) * b(k, j - p, z) for p in range(j + 1))
                            for k in range(n + 1)
                        )
                        if lhs != rhs:
                            expected = {"x": x, "y": y, "z": z}, lhs, rhs
                            break
                    rep = check(n, j, slot)
                    if slot is None:
                        assert expected is None and rep.passed, params
                        continue
                    assert expected is not None, (params, slot)
                    point, lhs, rhs = expected
                    assert not rep.passed
                    assert rep.witness.point == {v: scalar_str(t) for v, t in point.items()}, (
                        params,
                        slot,
                    )
                    assert (rep.witness.lhs, rep.witness.rhs) == (scalar_str(lhs), scalar_str(rhs))


class TestMonomial:
    def test_degree_two_power_one(self):
        # 2x = B_1^2 + 2 B_2^2.
        lhs = bernstein_basis(2, 1) + bernstein_basis(2, 2) * 2
        assert lhs == Poly1([0, 2])
        assert verify_monomial(2, 1).passed

    def test_power_zero_reduces_to_unity_partition(self):
        for n in range(8):
            assert verify_monomial(n, 0).passed

    def test_power_n_single_term(self):
        for n in range(8):
            assert verify_monomial(n, n).passed

    def test_power_beyond_degree_rejected(self):
        with pytest.raises(ValueError):
            verify_monomial(3, 4)


class TestDerivative:
    def test_first_derivative_two_term_form(self):
        # d/dx B_1^2 = 2 - 4x = 2(B_0^1 - B_1^1).
        assert bernstein_basis(2, 1).derivative() == Poly1([2, -4])
        assert (bernstein_basis(1, 0) - bernstein_basis(1, 1)) * 2 == Poly1([2, -4])
        assert verify_derivative(2, 1, 1).passed

    def test_order_zero_is_trivial(self):
        for n in range(6):
            for k in range(n + 1):
                assert verify_derivative(n, k, 0).passed

    def test_full_order_on_top_index(self):
        # The n-th derivative of x^n is n!, matched by the single surviving term.
        for n in range(1, 8):
            assert verify_derivative(n, n, n).passed

    def test_order_beyond_degree_rejected(self):
        with pytest.raises(ValueError):
            verify_derivative(3, 1, 4)


class TestRecurrence:
    def test_standard_two_term_recurrence(self):
        # B_1^2 = (1-x) B_1^1 + x B_0^1.
        rhs = (1 - Poly1.x()) * bernstein_basis(1, 1) + Poly1.x() * bernstein_basis(1, 0)
        assert rhs == bernstein_basis(2, 1)
        assert verify_recurrence(2, 1, 1).passed

    def test_split_order_zero_trivial(self):
        for n in range(6):
            for k in range(n + 1):
                assert verify_recurrence(n, k, 0).passed

    def test_full_split(self):
        for n in range(6):
            for k in range(n + 1):
                assert verify_recurrence(n, k, n).passed

    def test_split_beyond_degree_rejected(self):
        with pytest.raises(ValueError):
            verify_recurrence(3, 1, 4)


class TestDegreeOps:
    def test_raise_by_x(self):
        # x B_0^1 = (1/2) B_1^2.
        assert Poly1.x() * bernstein_basis(1, 0) == bernstein_basis(2, 1) * Fraction(1, 2)
        assert verify_degree_ops("raise-x", 1, 0, 1).passed

    def test_raise_by_one_minus_x(self):
        assert verify_degree_ops("raise-1mx", 1, 1, 1).passed

    def test_elevation_degree_zero(self):
        assert verify_degree_ops("elevation", 0, 0, 1).passed

    def test_parameter_mismatches_rejected(self):
        with pytest.raises(ValueError):
            verify_degree_ops("elevation", 2, 1, 2)
        with pytest.raises(ValueError):
            verify_degree_ops("raise-x", 2, 1, 0)
        with pytest.raises(ValueError):
            verify_degree_ops("raise-x", 2, 3, 1)
        with pytest.raises(ValueError):
            verify_degree_ops("shrink", 2, 1, 1)


class TestProduct:
    def test_index_zero_pair(self):
        assert verify_product(1, 0, 0).passed

    def test_mixed_pair(self):
        assert verify_product(1, 1, 0).passed

    def test_both_indices_one(self):
        assert verify_product(2, 1, 1).passed

    def test_indices_exceeding_degree_give_zero_sides(self):
        assert verify_product(1, 4, 4).passed

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            verify_product(2, -1, 0)


class TestTwoPoint:
    def test_index_zero_degree_zero(self):
        assert verify_two_point(0, 0).passed

    def test_index_zero_degree_one(self):
        assert verify_two_point(1, 0).passed

    def test_degree_two_index_one(self):
        # -xy = (1/2) sum_j C(2,j) (-1)^(2-j) B_1^j(x) B_1^(2-j)(y);
        # only j=1 survives and contributes -2xy.
        x, y = Poly2.x(), Poly2.y()
        j1_term = bernstein_basis(1, 1).as_poly2_in_x() * bernstein_basis(1, 1).as_poly2_in_y()
        rhs = j1_term * 2 * -1 * Fraction(1, 2)
        assert rhs == -(x * y)
        assert verify_two_point(2, 1).passed

    def test_degree_below_two_k_rejected(self):
        with pytest.raises(ValueError):
            verify_two_point(3, 2)


class TestFiniteSums:
    def test_tg1_single_term(self):
        for k in range(1, 7):
            assert verify_finite_sum("tg1", k, k).passed

    def test_tg2_degree_one(self):
        assert verify_finite_sum("tg2", 1, 1).passed

    def test_tg5_off_branch_cancellation(self):
        # n=2, k=1: B_1^2 - 2(1-x) B_1^1 = 0.
        lhs = bernstein_basis(2, 1) - (1 - Poly1.x()) * bernstein_basis(1, 1) * 2
        assert lhs == Poly1()
        assert verify_finite_sum("tg5", 2, 1).passed

    def test_tg5_on_branch(self):
        for k in range(1, 7):
            assert verify_finite_sum("tg5", k, k).passed

    def test_index_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            verify_finite_sum("tg1", 3, 4)
        with pytest.raises(ValueError):
            verify_finite_sum("tg2", 3, 0)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            verify_finite_sum("tg9", 3, 1)


class TestDispatchAndSlots:
    def test_every_id_dispatches(self):
        params = {
            "sum": {"n": 3},
            "alternating-sum": {"n": 3},
            "subdivision-product": {"n": 3, "j": 1},
            "subdivision-affine": {"n": 3, "j": 1},
            "subdivision-trivariate": {"n": 3, "j": 1},
            "monomial": {"n": 3, "l": 1},
            "derivative": {"n": 3, "k": 1, "l": 1},
            "recurrence": {"n": 3, "k": 1, "v": 1},
            "raise-x": {"n": 3, "k": 1, "d": 2},
            "raise-1mx": {"n": 3, "k": 1, "d": 2},
            "elevation": {"n": 3, "k": 1},
            "product": {"n": 3, "k1": 1, "k2": 1},
            "two-point": {"n": 4, "k": 2},
            "tg1": {"n": 3, "k": 1},
            "tg2": {"n": 3, "k": 1},
            "tg5": {"n": 3, "k": 1},
        }
        assert set(params) == set(SUITE_IDS)
        for identity_id, tuple_ in params.items():
            report = run_identity(identity_id, tuple_)
            assert report.passed, identity_id
            assert report.identity_id == identity_id
            assert dict(report.params) == tuple_

    def test_unknown_identity_rejected(self):
        with pytest.raises(ValueError):
            run_identity("no-such-identity", {"n": 1})

    def test_invalid_slot_rejected(self):
        with pytest.raises(ValueError, match=r"^sum has no mutation slot 'prefactor' at \{'n': 2\}$"):
            run_identity("sum", {"n": 2}, mutate="prefactor")

    @pytest.mark.parametrize("identity_id", SUITE_IDS)
    def test_public_check_rejects_an_unread_slot(self, identity_id):
        # Calls the public `verify_*` of the identity, not `run_identity`.
        check = PUBLIC_CHECKS[identity_id]
        params = suite_params(identity_id, 3)[-1]
        with pytest.raises(ValueError, match=f"^{re.escape(identity_id)} has no mutation slot 'bogus' at "):
            check(**params, mutate="bogus")

    def test_slots_the_check_never_reads_are_rejected(self):
        # Each of these once passed, having bumped nothing.
        with pytest.raises(ValueError, match="no mutation slot"):
            verify_sum(3, mutate="bogus")
        with pytest.raises(ValueError, match="no mutation slot"):
            verify_subdivision("product", 3, 1, mutate="bogus")
        with pytest.raises(ValueError, match="no mutation slot"):
            verify_degree_ops("raise-x", 3, 1, 2, mutate="term:0")

    def test_run_identity_runs_the_check_once(self, monkeypatch):
        # The slot is validated against what the one run read: neither the
        # public entry point nor `run_identity` runs the check a second time.
        entry = identities._SUITE["product"]
        seen = []

        def check(bump, **params):
            seen.append(params)
            return entry.check(bump, **params)

        monkeypatch.setitem(identities._SUITE, "product", entry._replace(check=check))
        params = {"n": 3, "k1": 1, "k2": 1}
        assert not run_identity("product", params, mutate="prefactor").passed
        assert not verify_product(**params, mutate="prefactor").passed
        assert seen == [params, params]

    def test_a_slot_is_whatever_the_check_reads(self, monkeypatch):
        # A check that reads one more constant has one more slot, with no
        # other list to update; bumping it reaches the check.
        entry = identities._SUITE["sum"]
        extra = []

        def check(bump, n):
            extra.append(bump(0, "extra"))
            return entry.check(bump, n=n)

        monkeypatch.setitem(identities._SUITE, "sum", entry._replace(check=check))
        assert mutation_slots("sum", {"n": 2}) == ("extra", "rhs-const")
        assert run_identity("sum", {"n": 2}, mutate="extra").passed
        assert verify_sum(2, mutate="extra").passed
        assert extra == [0, 1, 1]

    def test_slots_are_nonempty_for_all_ids(self):
        values = {"n": 4, "j": 2, "k": 1, "l": 1, "v": 1, "k1": 1, "k2": 1, "d": 1}
        for identity_id in SUITE_IDS:
            params = {name: values[name] for name in suite_params(identity_id, 1)[0]}
            assert mutation_slots(identity_id, params)

    def test_mutation_slots_checks_parameter_names(self):
        # The same check, and message, as run_identity: a missing name once
        # raised a bare KeyError, and an unknown one was ignored.
        for identity_id, params in (("monomial", {"n": 3}), ("sum", {"n": 3, "zz": 1})):
            for call in (mutation_slots, run_identity):
                with pytest.raises(ValueError, match=f"^{identity_id} takes parameters "):
                    call(identity_id, params)
        with pytest.raises(ValueError, match="unknown identity id"):
            mutation_slots("no-such-identity", {"n": 1})

    def test_report_params_follow_the_registry_order(self):
        # `run_identity` builds the report, so its parameters come in the
        # registry's name order whatever order the caller gave them in.
        for identity_id in SUITE_IDS:
            params = suite_params(identity_id, 3)[-1]
            report = run_identity(identity_id, dict(reversed(params.items())))
            assert list(report.params.items()) == list(params.items()), identity_id
        assert list(run_identity("derivative", {"l": 1, "k": 0, "n": 2}).params) == ["n", "k", "l"]


def _suite_cases(max_degree=6, trivariate_degree=5):
    """Every suite (identity id, parameter tuple), degree-capped."""
    for identity_id in SUITE_IDS:
        cap = trivariate_degree if identity_id == "subdivision-trivariate" else max_degree
        for params in suite_params(identity_id, cap):
            yield identity_id, params


def test_public_checks_report_what_run_identity_reports():
    assert tuple(PUBLIC_CHECKS) == SUITE_IDS
    for identity_id, params in _suite_cases(4, 4):
        for slot in (None, *mutation_slots(identity_id, params)):
            public = PUBLIC_CHECKS[identity_id](**params, mutate=slot)
            assert public == run_identity(identity_id, params, mutate=slot), (identity_id, params, slot)


def test_clean_checks_add_no_polynomials(monkeypatch):
    # Each side is one fused sum (or a fixed product), so a passing check
    # adds no polynomials; a return to term-by-term accumulation
    # (acc = acc + term) shows up here as additions that grow with n.
    adds = collections.Counter()
    for cls in (Poly1, Poly2):
        add = cls.__add__

        def counting(self, other, add=add):
            adds[current] += 1
            return add(self, other)

        monkeypatch.setattr(cls, "__add__", counting)
        monkeypatch.setattr(cls, "__radd__", counting)
    for current, params in _suite_cases():
        assert run_identity(current, params).passed, (current, params)
    assert sum(adds.values()) == 0, dict(adds)
    current = "probe"  # the counters see an addition in either ring
    assert Poly1.x() + 1 == 1 + Poly1.x() and Poly2.x() + Poly2.y() == Poly2([[0, 1], [1]])
    assert adds == {"probe": 3}


def test_basis_value_table_is_scaled_basis_values():
    for n in range(13):
        table = _basis_value_table(n)
        c = n + 2
        assert len(table) == c and grid_nodes(n) == [Fraction(i, c) for i in range(1, c + 1)]
        for i, rows in enumerate(table, 1):
            want = [
                [bernstein_basis(m, p).evaluate(Fraction(i, c)) * c**m for p in range(m + 1)]
                for m in range(n + 1)
            ]
            assert [list(row) for row in rows] == want, (n, i)
            assert all(type(v) is int for row in rows for v in row)


# sha256 over the JSON of the report of every suite tuple up to degree 6
# (trivariate 5), clean and with each of its mutation slots, in suite order.
# A changed verdict, witness or report byte of any slot changes the digest.
EVERY_SLOT_DIGEST = "2048f93e7f8346737dca9facd91c03485cce9a41df0f83b5a28571ea73790574"


def test_every_slot_report_digest_is_unchanged():
    digest = hashlib.sha256()
    for identity_id, params in _suite_cases():
        for slot in (None, *mutation_slots(identity_id, params)):
            report = run_identity(identity_id, params, mutate=slot)
            digest.update(json.dumps(report.to_json_dict(), sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == EVERY_SLOT_DIGEST


# sha256 over the JSON of [id, params, slots] for every suite tuple up to
# degree 10 (trivariate 6), in suite order: a slot added, dropped, renamed
# or read in another order changes it, at degrees the report digest above
# does not reach.
SLOT_LIST_DIGEST = "3f848dfcdb536d28558c54b6e16862c405675d5e483f49f7423c4f6227ad7da4"


def test_slot_lists_to_degree_10_are_unchanged():
    digest = hashlib.sha256()
    for identity_id, params in _suite_cases(10, 6):
        digest.update(json.dumps([identity_id, params, mutation_slots(identity_id, params)]).encode() + b"\n")
    assert digest.hexdigest() == SLOT_LIST_DIGEST


# sha256 as above, over every subdivision-trivariate tuple up to degree 12,
# clean and with each slot: the packed grids reach 14^3 points per tuple and
# two 64-bit words per slot.
TRIVARIATE_DIGEST = "306b9012a25abf4f8c46b3e7a8ec19e9db80959f855833131077fe70c3dc6ac6"


def test_trivariate_every_slot_digest_to_degree_12():
    digest = hashlib.sha256()
    for params in suite_params("subdivision-trivariate", 12):
        for slot in (None, *mutation_slots("subdivision-trivariate", params)):
            report = run_identity("subdivision-trivariate", params, mutate=slot)
            digest.update(json.dumps(report.to_json_dict(), sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == TRIVARIATE_DIGEST


def test_trivariate_slot_narrower_than_its_bound_is_caught(monkeypatch):
    # At j = n the left side at x = z = 1 is c^(2n), the slot bound itself
    # when no weight is bumped.  The widest whole-byte slot below that bound
    # cannot hold it; the check must raise rather than let the value carry
    # into the next slot.
    for n in range(13):
        assert run_identity("subdivision-trivariate", {"n": n, "j": n}).passed
    monkeypatch.setattr(identities, "_slot_width", lambda bound: (bound.bit_length() - 1) // 8 * 8)
    for n in range(13):
        with pytest.raises(OverflowError):
            run_identity("subdivision-trivariate", {"n": n, "j": n})


def test_trivariate_witness_is_decoded_from_any_slot(monkeypatch):
    # With the true table, every slot's mismatch shows at the first grid
    # point, slot 0 of x = 1/c.  Raising one table entry by 1 moves the first
    # mismatch to other (y, z) slots; the witness must still match the
    # per-point sums, read in x, y, z order, over the same table.
    for n in range(1, 5):
        real = _basis_value_table(n)
        c = len(real)
        entries = [(i, m, p) for i in range(c) for m in range(n + 1) for p in range(m + 1)]
        for i, m, p in entries:
            table = [[list(row) for row in node] for node in real]
            table[i][m][p] += 1
            monkeypatch.setattr(identities, "_basis_value_table", lambda n, table=table: table)
            for j in range(n + 1):
                expected = None
                for ix, iy, iz in itertools.product(range(1, c + 1), repeat=3):
                    tx, ty, tz = table[ix - 1], table[iy - 1], table[iz - 1]
                    u = (c - iy) * ix + iy * iz
                    lhs = math.comb(n, j) * u**j * (c * c - u) ** (n - j)
                    rhs = sum(
                        ty[n][k] * sum(tx[n - k][q] * tz[k][j - q] for q in range(max(0, j - k), min(j, n - k) + 1))
                        for k in range(n + 1)
                    )
                    if lhs != rhs:
                        expected = {"x": ix, "y": iy, "z": iz}, lhs, rhs
                        break
                rep = run_identity("subdivision-trivariate", {"n": n, "j": j})
                if expected is None:
                    assert rep.passed, (n, j, i, m, p)
                    continue
                point, lhs, rhs = expected
                den = c ** (2 * n)
                assert not rep.passed
                assert rep.witness.point == {v: scalar_str(Fraction(t, c)) for v, t in point.items()}
                assert (rep.witness.lhs, rep.witness.rhs) == (scalar_str(Fraction(lhs, den)), scalar_str(Fraction(rhs, den)))
