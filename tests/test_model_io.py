import dataclasses
import math
import re

import numpy as np
import pytest

from feedrank.errors import DataError
from feedrank.indices import IndexTable, compute_indices
from feedrank.model_io import ModelBundle, _fmt_list, read_model, write_model
from feedrank.states import BinSpec, StateSpace


def make_bundle(with_index=False):
    bins = BinSpec((1, 2, 3), (0.0, 2.0, math.inf))
    rng = np.random.default_rng(77)
    n = bins.n_states
    bundle = ModelBundle(
        space=StateSpace(bins, r_n=(1.0, 0.25), r_p=(0.125, 1.0)),
        epsilon=0.1,
        beta=0.9,
        p1=rng.dirichlet(np.ones(n), size=n),
        meta={"train_window": "[0, 100)", "items_used": "42"},
    )
    if with_index:
        bundle.index = compute_indices(bundle.model, bundle.space.reward)
    return bundle


def test_round_trip_preserves_everything(tmp_path):
    bundle = make_bundle(with_index=True)
    path = tmp_path / "model.txt"
    write_model(bundle, path)
    back = read_model(path)
    assert back.space.bins == bundle.space.bins
    assert back.space.r_n == bundle.space.r_n
    assert back.space.r_p == bundle.space.r_p
    assert back.beta == bundle.beta
    assert back.epsilon == bundle.epsilon
    assert np.array_equal(back.p1, bundle.p1)
    assert np.array_equal(back.model.p0, bundle.model.p0)
    assert back.meta == bundle.meta
    assert np.array_equal(back.index.g, bundle.index.g)
    assert back.index.sweep is None


def test_bundles_read_from_one_file_compare_without_raising(tmp_path):
    path = tmp_path / "model.txt"
    write_model(make_bundle(with_index=True), path)
    first, second = read_model(path), read_model(path)
    assert first == first
    assert first != second


def test_file_is_format_v4_and_stores_only_g(tmp_path):
    path = tmp_path / "model.txt"
    write_model(make_bundle(with_index=True), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# feedrank model, format v4"
    # One slowdown factor for every state, written once.
    assert [line for line in lines if line.startswith("epsilon")] == [
        "epsilon = 0.10000000000000001"]
    assert [line.split(" = ")[0] for line in lines[lines.index("[indices]") + 1:]] == ["g"]


def test_rewrite_is_byte_identical(tmp_path):
    bundle = make_bundle(with_index=True)
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    write_model(bundle, a)
    write_model(read_model(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_index_section_is_optional(tmp_path):
    path = tmp_path / "model.txt"
    write_model(make_bundle(with_index=False), path)
    assert read_model(path).index is None
    assert "[indices]" not in path.read_text()


def test_missing_section_rejected(tmp_path):
    path = tmp_path / "model.txt"
    write_model(make_bundle(), path)
    text = path.read_text()
    mutilated = text[:text.index("[p1]")]
    path.write_text(mutilated)
    with pytest.raises(DataError) as exc_info:
        read_model(path)
    assert "[p1]" in str(exc_info.value)


def test_garbage_line_rejected(tmp_path):
    path = tmp_path / "model.txt"
    write_model(make_bundle(), path)
    path.write_text(path.read_text() + "stray line\n")
    with pytest.raises(DataError) as exc_info:
        read_model(path)
    assert "line" in str(exc_info.value)


def test_earlier_or_missing_header_is_refused(tmp_path):
    path = tmp_path / "model.txt"
    write_model(make_bundle(with_index=True), path)
    body = path.read_text().split("\n", 1)[1]
    for header in ("# feedrank model, format v1", "# feedrank model, format v2",
                   "# feedrank model, format v3", "# feedrank model, format v9", ""):
        path.write_text(f"{header}\n{body}" if header else body)
        first = header or "[meta]"
        with pytest.raises(DataError, match=re.escape(
                f"starts with '{first}', not '# feedrank model, format v4'; rerun fit")):
            read_model(path)


def test_wrong_row_count_rejected(tmp_path):
    path = tmp_path / "model.txt"
    write_model(make_bundle(), path)
    # Remove row_4 from p1.
    lines = [l for l in path.read_text().splitlines()
             if not l.startswith("row_4 = ")]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError):
        read_model(path)


def tampered(tmp_path, prefix, replacement):
    """A model file with an index table whose line starting with ``prefix``
    is replaced."""
    path = tmp_path / "model.txt"
    write_model(make_bundle(with_index=True), path)
    lines = [replacement if line.startswith(prefix) else line
             for line in path.read_text().splitlines()]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_short_p1_row_rejected(tmp_path):
    # One value would broadcast over the whole row if it were accepted.
    path = tampered(tmp_path, "row_3 = ", "row_3 = 0.5")
    with pytest.raises(DataError) as exc_info:
        read_model(path)
    assert "row_3" in str(exc_info.value)


@pytest.mark.parametrize("prefix,replacement,message", [
    ("beta = ", "beta = 1", "beta"),
    ("beta = ", "beta = nan", "beta"),
    ("epsilon = ", "epsilon = 2", "epsilon"),
    ("epsilon = ", "epsilon = nan", "epsilon"),
    ("epsilon = ", "epsilon = 0.1,0.1,0.1,0.1,0.1", "unparseable"),
    ("r_n = ", "r_n = nan,0.25", "reward"),
    ("row_2 = ", "row_2 = nan,0,1,0,0", "p1"),
    ("g = ", "g = 0.5,0.5,inf,0.5,0.5", "finite"),
    ("g = ", "g = 0.5,0.5,nan,0.5,0.5", "finite"),
    ("g = ", "g = 0.5,0.5,0.5,0.5", "finite"),
    ("train_window = ", "train_window = [a, b)", "meta"),
    ("train_window = ", "train_window = [100, 0)", "meta"),
], ids=["beta-1", "beta-nan", "epsilon-2", "epsilon-nan", "epsilon-per-state", "r_n-nan",
        "p1-nan", "g-inf", "g-nan", "g-short", "meta-window", "meta-window-empty"])
def test_out_of_range_value_rejected_on_load(tmp_path, prefix, replacement, message):
    with pytest.raises(DataError, match=message):
        read_model(tampered(tmp_path, prefix, replacement))


@pytest.mark.parametrize("field,value,message", [
    ("space", StateSpace(BinSpec((1, 2), (0.0, math.inf)), (1.0,), (1.0,)),
     r"\[p1\] has shape \(5, 5\), expected \(2, 2\)"),
    ("beta", 1.0, "beta"),
    ("epsilon", 2.0, "epsilon"),
    ("epsilon", np.full(5, 0.1), "one number"),
    ("meta", {"train_window": "[100, 0)"}, "meta"),
    ("index", IndexTable(np.array([0.5, np.nan])), "finite"),
    ("p1", np.full((3, 3), 1 / 3), r"\[p1\] has shape \(3, 3\), expected \(5, 5\)"),
], ids=["space-other-grid", "beta-1", "epsilon-2", "epsilon-per-state",
        "meta-window-empty", "g-nan", "p1-3x3"])
def test_bundle_checks_itself_when_built(field, value, message):
    # A fitted bundle meets the checks a read one does, when it is built.
    with pytest.raises(DataError, match=message):
        dataclasses.replace(make_bundle(), **{field: value})


def test_fmt_list_formats_like_format_per_value():
    values = [-0.0, 5e-324, 2.2250738585072014e-308, 1e308, 0.1, 1 / 3, math.inf, -math.inf,
              0.0, math.nan]
    # A p1 row: mostly +0.0, written without a format call, and one -0.0, which is not.
    row = [0.0] * 7 + [0.25, 0.0, -0.0, 0.75, 0.0]
    for case in (values, row, [0.0], [-0.0]):
        expected = ",".join(format(v, ".17g") for v in case)
        assert _fmt_list(case) == expected
        assert _fmt_list(np.array(case)) == expected
    assert _fmt_list([]) == ""


def test_401_state_p1_round_trips_bit_for_bit(tmp_path):
    # The fine-grid size: 40 novelty bins by 10 popularity bins, plus state 0.
    bins = BinSpec(tuple(range(1, 42)), (*range(10), math.inf))
    rng = np.random.default_rng(401)
    p1 = rng.dirichlet(np.ones(bins.n_states), size=bins.n_states)
    p1[rng.random(p1.shape) < 0.5] = 0.0
    p1 /= p1.sum(axis=1, keepdims=True)
    space = StateSpace(bins, tuple(np.linspace(1, 0, 40)), tuple(np.linspace(0, 1, 10)))
    bundle = ModelBundle(space=space, epsilon=0.1, beta=0.9, p1=p1)
    path = tmp_path / "model.txt"
    write_model(bundle, path)
    assert read_model(path).p1.tobytes() == p1.tobytes()


def test_duplicate_section_rejected(tmp_path):
    path = tmp_path / "model.txt"
    write_model(make_bundle(), path)
    path.write_text(path.read_text() + "[bins]\n")
    with pytest.raises(DataError) as exc_info:
        read_model(path)
    assert "duplicate" in str(exc_info.value)


def test_no_timestamps_in_output(tmp_path):
    # Byte determinism requires the writer never embeds wall-clock data.
    path = tmp_path / "model.txt"
    write_model(make_bundle(with_index=True), path)
    text = path.read_text().lower()
    assert "date" not in text
    assert "time" not in text
