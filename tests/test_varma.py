import dataclasses
import math

import numpy as np
import pytest

from vardiag import (
    CATALOG_NAMES,
    DimensionMismatch,
    InvalidModel,
    UnknownModel,
    VarmaModel,
    catalog,
    inverse_ma_weights,
    ma_weights,
    simulate,
    validate_model,
)
from vardiag.montecarlo import derive_seed
from vardiag.varma import ModelCheck, innovation_recursion

from reference import loop_recursion


def scalar_model(phi=(), theta=()):
    return VarmaModel(
        phi=tuple([[v]] for v in phi),
        theta=tuple([[v]] for v in theta),
        innov_cov=[[1.0]],
    )


class TestModelConstruction:
    def test_dimension_checks(self):
        with pytest.raises(DimensionMismatch):
            VarmaModel(phi=([[0.5, 0.1]],), innov_cov=np.eye(2))
        with pytest.raises(DimensionMismatch):
            VarmaModel(innov_cov=np.eye(2), mean=[0.0, 0.0, 0.0])

    @pytest.mark.parametrize("fields, message", [
        (dict(), "innov_cov is required"),
        (dict(innov_cov=np.ones((2, 3))), "innov_cov must be square"),
        (dict(innov_cov=[1.0, 1.0]), "innov_cov must be square"),
        (dict(innov_cov=[[1.0, np.nan], [np.nan, 1.0]]), "innov_cov has non-finite entries"),
        (dict(innov_cov=np.eye(2), mean=[1.0, None]), "mean has non-finite entries"),
        (dict(innov_cov=np.eye(2), phi=(np.full((2, 2), np.inf),)), r"phi\[1\] has non-finite"),
        (dict(innov_cov=np.eye(2), theta=(np.eye(2), [[np.nan, 0], [0, 0]])),
         r"theta\[2\] has non-finite"),
        (dict(innov_cov=np.eye(2), phi=5), "phi must be a sequence of"),
        (dict(innov_cov=np.eye(2), phi=None), "phi must be a sequence of"),
        (dict(innov_cov=np.eye(2), theta=("ab",)), "theta must be a sequence of"),
        (dict(innov_cov=np.eye(2), phi=([[0.5, [0.1]], [0.0, 0.4]],)), "phi must be a sequence of"),
        (dict(innov_cov=[[1, "a"], ["a", 1]]), "innov_cov must be a square matrix of numbers"),
        (dict(innov_cov=[[1, [0]], [0, 1]]), "innov_cov must be a square matrix of numbers"),
        (dict(innov_cov=np.eye(2), mean=["a", 0]), "mean must be 2 numbers"),
        (dict(innov_cov=np.eye(2), mean=[[0], 1]), "mean must be 2 numbers"),
    ])
    def test_bad_fields_are_refused_by_name(self, fields, message):
        with pytest.raises(DimensionMismatch, match=message):
            VarmaModel(**fields)

    def test_innov_cov_must_be_spd(self):
        from vardiag import NotPositiveDefinite
        with pytest.raises(NotPositiveDefinite):
            VarmaModel(innov_cov=[[1.0, 2.0], [2.0, 1.0]])

    def test_fields_cannot_be_assigned(self):
        model = catalog("phi1")
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.phi = (2 * np.eye(2),)

    @pytest.mark.parametrize("extra", [dict(_check=ModelCheck(True, True, 0.0, 0.0)),
                                       dict(_innov_chol=np.eye(2))])
    def test_verdict_and_factor_are_not_parameters(self, extra):
        with pytest.raises(TypeError):
            VarmaModel(phi=(2 * np.eye(2),), innov_cov=np.eye(2), **extra)

    def test_replaced_model_is_checked_afresh(self):
        model = catalog("phi1")
        simulate(model, 10, derive_seed(1, 0))
        explosive = dataclasses.replace(model, phi=(2 * np.eye(2),))
        with pytest.raises(InvalidModel, match="AR radius 2.0"):
            simulate(explosive, 10, derive_seed(1, 0))
        wider = dataclasses.replace(model, innov_cov=4 * np.eye(2))
        assert np.array_equal(wider._innov_chol, 2 * np.eye(2))


class TestValidate:
    def test_phi1_matrix_stationary(self):
        # char poly t^2 - 1.3 t + 0.42 has roots 0.7 and 0.6
        check = validate_model(catalog("phi1"))
        assert check.stationary and check.invertible
        assert abs(check.spectral_radius_ar - 0.7) < 0.05

    def test_unit_root_not_stationary(self):
        model = VarmaModel(phi=(np.eye(2),), innov_cov=np.eye(2))
        check = validate_model(model)
        assert not check.stationary
        assert check.spectral_radius_ar > 1.0 - 1e-6

    def test_complex_pair_radius(self):
        # trace -1, det 0.33: complex pair with modulus sqrt(0.33)
        check = validate_model(catalog("phi2"))
        assert check.stationary
        assert abs(check.spectral_radius_ar - math.sqrt(0.33)) < 0.02

    def test_radius_is_exact_for_non_normal_and_repeated_roots(self):
        # non-normal and repeated-root companions: a power-norm estimate overstates both by >1.5%
        jordan = VarmaModel(phi=([[0.97, 0.3], [0.0, 0.97]],), innov_cov=np.eye(2))
        assert validate_model(jordan).stationary
        assert abs(validate_model(jordan).spectral_radius_ar - 0.97) < 1e-12
        # AR(2) with a double root at 0.95: (1 - 0.95 B)^2
        double = scalar_model(phi=(1.9, -0.9025))
        assert validate_model(double).stationary
        assert abs(validate_model(double).spectral_radius_ar - 0.95) < 1e-6

    def test_pure_ma_side(self):
        check = validate_model(catalog("model5"))
        assert check.spectral_radius_ar == 0.0
        assert abs(check.spectral_radius_ma - math.sqrt(0.76)) < 0.02


class TestMaWeights:
    def test_pure_var_gives_matrix_powers(self):
        model = catalog("phi1")
        psi = ma_weights(model, 6)
        phi = model.phi[0]
        expect = np.eye(2)
        for j in range(6):
            assert np.abs(psi[j] - expect).max() < 1e-14
            expect = phi @ expect

    def test_pure_vma_truncates(self):
        model = catalog("model5")
        psi = ma_weights(model, 5)
        assert np.array_equal(psi[0], np.eye(2))
        assert np.abs(psi[1] + model.theta[0]).max() < 1e-15
        for j in (2, 3, 4):
            assert np.abs(psi[j]).max() == 0.0

    def test_scalar_recursion(self):
        # phi=0.5, theta=0.3: psi_1 = 0.2, psi_2 = 0.1
        psi = ma_weights(scalar_model(phi=(0.5,), theta=(0.3,)), 3)
        assert abs(psi[1][0, 0] - 0.2) < 1e-15
        assert abs(psi[2][0, 0] - 0.1) < 1e-15

    def test_convolution_identity(self):
        # phi(B) psi(B) = theta(B) termwise for every catalog model
        for name in CATALOG_NAMES:
            model = catalog(name)
            k = model.k
            psi = ma_weights(model, 21)
            for j in range(21):
                total = psi[j].copy()
                for i in range(1, min(j, model.p) + 1):
                    total -= model.phi[i - 1] @ psi[j - i]
                expect = -model.theta[j - 1] if 1 <= j <= model.q else np.zeros((k, k))
                if j == 0:
                    expect = np.eye(k)
                assert np.abs(total - expect).max() < 1e-12, name

    def test_weights_decay(self):
        for name in CATALOG_NAMES:
            psi = ma_weights(catalog(name), 51)
            assert np.linalg.norm(psi[50]) < 1e-3, name


class TestInverseMaWeights:
    def test_no_ma_part(self):
        pi = inverse_ma_weights(catalog("phi1"), 4)
        assert np.array_equal(pi[0], np.eye(2))
        for j in (1, 2, 3):
            assert np.abs(pi[j]).max() == 0.0

    def test_scalar_geometric(self):
        pi = inverse_ma_weights(scalar_model(theta=(0.5,)), 6)
        for j in range(6):
            assert abs(pi[j][0, 0] - 0.5 ** j) < 1e-15

    def test_vma1_matrix_powers(self):
        model = catalog("model6")
        pi = inverse_ma_weights(model, 6)
        expect = np.eye(2)
        for j in range(6):
            assert np.abs(pi[j] - expect).max() < 1e-13
            expect = model.theta[0] @ expect


class TestSimulate:
    def test_white_noise_autocovariances_near_zero(self):
        model = VarmaModel(innov_cov=np.eye(2))
        n = 10_000
        data = simulate(model, n, derive_seed(123, 0))
        bound = 4.0 / math.sqrt(n)
        for lag in range(1, 6):
            acov = data[lag:].T @ data[:-lag] / n
            assert np.abs(acov).max() < bound

    def test_same_seed_is_bitwise_identical(self):
        model = catalog("phi1")
        a = simulate(model, 50, derive_seed(9, 4))
        b = simulate(model, 50, derive_seed(9, 4))
        assert a.tolist() == b.tolist()

    def test_invalid_model_refused(self):
        model = VarmaModel(phi=(np.eye(2),), innov_cov=np.eye(2))
        with pytest.raises(InvalidModel):
            simulate(model, 10, derive_seed(0, 0))

    def test_mean_recovery(self):
        mean = np.array([4.0, -2.5])
        cov = np.diag([1.0, 9.0])
        model = VarmaModel(innov_cov=cov, mean=mean)
        n = 10_000
        data = simulate(model, n, derive_seed(77, 0))
        for i in range(2):
            assert abs(data[:, i].mean() - mean[i]) < 4.0 * math.sqrt(cov[i, i] / n)

    def test_shape_and_finiteness(self):
        data = simulate(catalog("model8"), 37, derive_seed(5, 1))
        assert data.shape == (37, 3)
        assert np.isfinite(data).all()

    @pytest.mark.parametrize("call, message", [
        (lambda model: simulate(model, 0, derive_seed(0, 0)), "n must be at least 1"),
        (lambda model: simulate(model, 2.5, derive_seed(0, 0)), "n must be an integer"),
        (lambda model: simulate(model, "5", derive_seed(0, 0)), "n must be an integer"),
        (lambda model: ma_weights(model, 0), "count must be at least 1"),
        (lambda model: ma_weights(model, 2.5), "count must be an integer"),
        (lambda model: inverse_ma_weights(model, -1), "count must be at least 1"),
    ], ids=["simulate-0", "simulate-float", "simulate-str", "ma-0", "ma-float", "inverse-ma-neg"])
    def test_counts_are_refused_by_name(self, call, message):
        with pytest.raises(ValueError, match=message):
            call(catalog("model3"))

    def test_numpy_integer_count_is_an_int(self):
        model = catalog("phi1")
        assert (simulate(model, np.int64(20), derive_seed(3, 0)).tolist()
                == simulate(model, 20, derive_seed(3, 0)).tolist())
        assert len(ma_weights(model, np.int32(4))) == 4


class TestInnovationRecursion:
    @pytest.mark.parametrize("name", ["model1", "model8"])
    def test_stack_matches_per_path(self, name):
        # model1 is a bivariate VAR(2); model8 a trivariate VARMA(1, 1)
        model = catalog(name)
        rng = np.random.default_rng(17)
        innovations = rng.standard_normal((2, 5, 160, model.k)) @ model._innov_chol.T
        stacked = innovation_recursion(model.phi, model.theta, innovations)
        assert stacked.shape == innovations.shape
        for path, noise in zip(stacked.reshape(10, 160, model.k),
                               innovations.reshape(10, 160, model.k)):
            expect = innovation_recursion(model.phi, model.theta, noise)
            assert np.abs(path - expect).max() <= 1e-13 * np.abs(expect).max()

    @pytest.mark.parametrize("name", ["model1", "model8"])
    def test_stack_of_one_is_bitwise_the_single_path(self, name):
        model = catalog(name)
        noise = np.random.default_rng(18).standard_normal((120, model.k))
        single = innovation_recursion(model.phi, model.theta, noise)
        stacked = innovation_recursion(model.phi, model.theta, noise[None])
        assert stacked[0].tobytes() == single.tobytes()

    @pytest.mark.parametrize("stack", [(), (32,)])
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_scan_matches_the_loop(self, name, stack):
        # the scan's passes double from 1, so 2^j and 2^j + 1 steps sit on either
        # side of a pass boundary; model5 is a pure VMA(1), model1 a VAR(2)
        model = catalog(name)
        rng = np.random.default_rng(19)
        for steps in sorted({0, 1, model.p, 2, 3, 8, 9, 64, 65, 310, 610}):
            noise = rng.standard_normal(stack + (steps, model.k)) @ model._innov_chol.T
            got = innovation_recursion(model.phi, model.theta, noise)
            expect = loop_recursion(model.phi, model.theta, noise)
            assert got.shape == expect.shape and got.flags.c_contiguous
            if steps:
                assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max(), steps


    @pytest.mark.parametrize("stack", [(), (3,)])
    @pytest.mark.parametrize("phi, theta", [
        (catalog("phi1").phi, ()), (catalog("model3").phi, catalog("model3").theta),
        ((), catalog("model5").theta), ((), ())], ids=["var", "varma", "ma", "no-terms"])
    def test_innovations_are_left_unchanged(self, phi, theta, stack):
        noise = np.random.default_rng(20).standard_normal(stack + (70, 2))
        before = noise.tobytes()
        noise.flags.writeable = False  # a write into the innovations raises
        got = innovation_recursion(phi, theta, noise)
        assert noise.tobytes() == before
        assert got.shape == noise.shape and not np.shares_memory(got, noise)


class TestCatalog:
    def test_phi3_coefficients(self):
        model = catalog("phi3")
        assert model.phi[0].tolist() == [[0.4, 0.1], [-1.0, 0.5]]
        assert model.innov_cov.tolist() == [[1.0, 0.5], [0.5, 1.0]]

    def test_model6_coefficients(self):
        model = catalog("model6")
        assert model.theta[0].tolist() == [[0.2, 0.3], [-0.6, 1.1]]
        assert model.innov_cov.tolist() == [[2.0, 1.0], [1.0, 1.0]]

    def test_model5_coefficients(self):
        model = catalog("model5")
        assert model.p == 0 and model.q == 1
        assert model.theta[0].tolist() == [[0.8, 0.7], [-0.4, 0.6]]
        assert model.innov_cov.tolist() == [[4.0, 1.0], [1.0, 2.0]]

    def test_model8_is_trivariate(self):
        model = catalog("model8")
        assert model.k == 3 and model.p == 1 and model.q == 1

    def test_unknown_name(self):
        with pytest.raises(UnknownModel):
            catalog("bogus")

    def test_names_keep_their_order(self):
        # study trials seed from CATALOG_NAMES.index(name)
        assert CATALOG_NAMES == ("phi1", "phi2", "phi3", "phi4", "model1", "model2", "model3",
                                 "model4", "model5", "model6", "model7", "model8")

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_edits_to_one_instance_do_not_reach_the_next(self, name):
        def arrays(model):
            return (*model.phi, *model.theta, model.innov_cov, model.mean)

        first = catalog(name)
        expect = [a.copy() for a in arrays(first)]
        for a in arrays(first):
            a += 1.0
        after = arrays(catalog(name))
        assert all(np.array_equal(a, b) for a, b in zip(after, expect, strict=True))

    def test_every_entry_is_valid(self):
        for name in CATALOG_NAMES:
            check = validate_model(catalog(name))
            assert check.stationary and check.invertible, name

    def test_model4_zero_rows_accepted(self):
        check = validate_model(catalog("model4"))
        assert check.stationary
        assert abs(check.spectral_radius_ar - 0.8) < 0.05
