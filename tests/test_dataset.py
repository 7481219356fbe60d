import numpy as np
import pytest

from rankscreen.dataset import Dataset
from rankscreen.errors import InvalidInput


class TestDataset:
    def test_no_covariates_rejected(self):
        with pytest.raises(InvalidInput):
            Dataset(y=np.arange(3.0), x=np.empty((3, 0)))

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInput):
            Dataset(y=np.arange(3.0), x=np.ones((4, 2)))

    def test_exposure_length_checked(self):
        with pytest.raises(InvalidInput):
            Dataset(y=np.arange(3.0), x=np.ones((3, 2)), z=np.arange(4.0))

    def test_default_names_generated(self):
        ds = Dataset(y=np.arange(3.0), x=np.ones((3, 2)))
        assert ds.x_names == ["x0001", "x0002"]

    def test_explicit_names_validated(self):
        with pytest.raises(InvalidInput):
            Dataset(y=np.arange(3.0), x=np.ones((3, 2)), x_names=["a"])

    def test_non_finite_response_rejected(self):
        with pytest.raises(InvalidInput, match="response"):
            Dataset(y=np.array([1.0, np.inf, 2.0]), x=np.ones((3, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_first_non_finite_covariate_named(self, bad):
        x = np.ones((3, 4))
        x[2, 1] = bad
        x[0, 3] = np.nan
        with pytest.raises(InvalidInput) as info:
            Dataset(y=np.arange(3.0), x=x, x_names=["a", "b", "c", "d"])
        assert str(info.value) == (
            "covariate column 'b' contains NaN or infinite values")

    def test_non_finite_exposure_named(self):
        with pytest.raises(InvalidInput, match="exposure column 'dose'"):
            Dataset(y=np.arange(3.0), x=np.ones((3, 2)),
                    z=np.array([0.0, np.nan, 1.0]), z_name="dose")

    def test_unnamed_exposure_named_z(self):
        ds = Dataset(y=np.arange(3.0), x=np.ones((3, 2)), z=np.arange(3.0))
        assert ds.z_name == "z"
        assert Dataset(y=np.arange(3.0), x=np.ones((3, 2))).z_name is None
        with pytest.raises(InvalidInput, match="exposure column 'z'"):
            Dataset(y=np.arange(3.0), x=np.ones((3, 2)),
                    z=np.array([0.0, np.inf, 1.0]))

    def test_zero_rows_allowed(self):
        assert Dataset(y=np.empty(0), x=np.empty((0, 2))).n == 0

    def test_shapes(self):
        ds = Dataset(y=np.arange(5.0), x=np.ones((5, 3)))
        assert ds.n == 5
        assert ds.p == 3
