import json

import numpy as np
import pytest

from incgeom.family import Family, read_family, write_family


@pytest.fixture
def tmp_family_path(tmp_path):
    return tmp_path / "fam.txt"


def test_round_trip_bitwise(tmp_family_path):
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.5, 0.5, size=(200, 3))
    fam = Family(kind="points", elements=pts, delta=2.0**-6, dim=3)
    write_family(fam, tmp_family_path)
    back = read_family(tmp_family_path)
    assert back.kind == "points"
    assert back.dim == 3
    assert back.delta == fam.delta
    assert np.array_equal(back.elements, fam.elements)


def test_round_trip_planes_with_awkward_floats(tmp_family_path):
    # values with no short decimal representation must survive the trip
    coeffs = np.array([[1.0 / 3.0, 0.1], [np.nextafter(0.5, 1.0), -0.25]])
    fam = Family(kind="hyperplanes", elements=coeffs, delta=0.015625, dim=2)
    write_family(fam, tmp_family_path)
    back = read_family(tmp_family_path)
    assert np.array_equal(back.elements, coeffs)


def test_empty_family_round_trip(tmp_family_path):
    fam = Family(kind="points", elements=np.empty((0, 2)), delta=0.25, dim=2)
    write_family(fam, tmp_family_path)
    back = read_family(tmp_family_path)
    assert len(back) == 0
    assert back.elements.shape == (0, 2)


def test_write_matches_the_per_row_format(tmp_family_path):
    """The file is byte for byte what formatting each row with
    `" ".join(f"{v:.17g}" for v in row)` gives, edge values included."""
    tiny = np.array([[-0.0, 5e-324], [np.nextafter(0.5, 1.0), 1.0 / 3.0], [1e300, 0.0]])
    for elements in (tiny, np.empty((0, 2))):
        fam = Family(kind="points", elements=elements, delta=0.25, dim=2)
        write_family(fam, tmp_family_path)
        want = "#points dim=2 delta=0.25\n" + "".join(
            " ".join(f"{v:.17g}" for v in row) + "\n" for row in elements
        )
        assert tmp_family_path.read_text() == want


def test_elements_are_read_only():
    fam = Family(kind="points", elements=np.zeros((2, 2)), delta=0.5, dim=2)
    with pytest.raises(ValueError):
        fam.elements[0, 0] = 1.0


class TestParseErrors:
    def write(self, path, text):
        path.write_text(text)
        return path

    def test_field_count_names_line(self, tmp_family_path):
        self.write(tmp_family_path, "#points dim=2 delta=0.25\n0 0\n1 2 3\n")
        with pytest.raises(ValueError, match=r":3: expected 2 fields, found 3"):
            read_family(tmp_family_path)

    def test_bad_float_names_line(self, tmp_family_path):
        self.write(tmp_family_path, "#points dim=2 delta=0.25\n0 zero\n")
        with pytest.raises(ValueError, match=r":2: unreadable coordinate"):
            read_family(tmp_family_path)

    def test_malformed_header(self, tmp_family_path):
        self.write(tmp_family_path, "#lines dim=2 delta=0.25\n")
        with pytest.raises(ValueError, match="malformed header"):
            read_family(tmp_family_path)

    def test_delta_out_of_range(self, tmp_family_path):
        self.write(tmp_family_path, "#points dim=2 delta=0\n")
        with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
            read_family(tmp_family_path)

    def test_empty_file(self, tmp_family_path):
        self.write(tmp_family_path, "\n\n")
        with pytest.raises(ValueError, match="empty file"):
            read_family(tmp_family_path)

    def test_slope_cap_violation_names_line(self, tmp_family_path):
        self.write(
            tmp_family_path,
            "#hyperplanes dim=2 delta=0.25\n0 0\n11 0\n",
        )
        with pytest.raises(ValueError, match=r":3: plane 1: slope"):
            read_family(tmp_family_path)

    def test_plane_missing_ball_names_line(self, tmp_family_path):
        self.write(tmp_family_path, "#hyperplanes dim=2 delta=0.25\n0 1.5\n")
        with pytest.raises(ValueError, match=r":2: plane 0: .*misses"):
            read_family(tmp_family_path)

    def test_point_norm_violation_names_line(self, tmp_family_path):
        self.write(tmp_family_path, "#points dim=2 delta=0.001\n9 9\n")
        with pytest.raises(ValueError, match=r":2: point 0: norm"):
            read_family(tmp_family_path)

    def test_duplicates_rejected_on_read(self, tmp_family_path):
        self.write(tmp_family_path, "#points dim=2 delta=0.25\n0 0\n0 0\n")
        with pytest.raises(ValueError, match="not pairwise distinct"):
            read_family(tmp_family_path)

    def test_duplicate_names_its_line_and_the_row_it_repeats(self, tmp_family_path):
        self.write(tmp_family_path, "#points dim=2 delta=0.25\n0 0\n0.5 0\n\n0 0\n")
        with pytest.raises(ValueError) as err:
            read_family(tmp_family_path)
        assert str(err.value) == (
            f"{tmp_family_path}:5: element 2: repeats element 0; "
            "elements are not pairwise distinct (1 duplicate rows)"
        )

    def test_bad_dimension_names_the_header_line(self, tmp_family_path):
        self.write(tmp_family_path, "#points dim=1 delta=0.25\n0\n")
        with pytest.raises(ValueError) as err:
            read_family(tmp_family_path)
        assert str(err.value) == (
            f"{tmp_family_path}:1: dimension must be an integer >= 2, got 1"
        )

    @pytest.mark.parametrize("kind", ["points", "hyperplanes"])
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_coordinate_names_line(self, tmp_family_path, kind, token):
        # float() reads every token; blank lines between rows keep the
        # reported line the one in the file
        self.write(tmp_family_path,
                   f"\n#{kind} dim=2 delta=0.25\n0 0.5\n\n0.25 0\n\n\n0 {token}\n0.5 0.25\n")
        with pytest.raises(ValueError) as err:
            read_family(tmp_family_path)
        assert str(err.value) == f"{tmp_family_path}:8: element 2: non-finite coordinate"


class TestFamilyInvariants:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown family kind"):
            Family(kind="lines", elements=np.zeros((1, 2)), delta=0.5, dim=2)

    def test_dim_too_small(self):
        with pytest.raises(ValueError, match="dimension"):
            Family(kind="points", elements=np.zeros((1, 1)), delta=0.5, dim=1)

    def test_numpy_integer_dim_is_stored_as_int(self):
        fam = Family(kind="points", elements=np.zeros((1, 3)), delta=0.5, dim=np.int64(3))
        assert fam.dim == 3 and type(fam.dim) is int
        json.dumps({"dim": fam.dim})

    @pytest.mark.parametrize("dim", [True, 3.0, np.float64(3.0), "3"])
    def test_non_integer_dim_is_refused(self, dim):
        with pytest.raises(ValueError, match="dimension"):
            Family(kind="points", elements=np.zeros((1, 3)), delta=0.5, dim=dim)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            Family(kind="points", elements=np.zeros((4, 3)), delta=0.5, dim=2)

    def test_delta_must_be_subunit(self):
        with pytest.raises(ValueError, match="delta"):
            Family(kind="points", elements=np.zeros((1, 2)), delta=1.0, dim=2)

    def test_validate_returns_self(self):
        fam = Family(kind="points", elements=np.array([[0.1, 0.2]]), delta=0.5, dim=2)
        assert fam.validate() is fam

    def test_construction_defers_distinctness(self):
        # duplicate rows are representable; only validate() rejects them
        fam = Family(kind="points", elements=np.zeros((3, 2)), delta=0.5, dim=2)
        with pytest.raises(ValueError, match="distinct"):
            fam.validate()
