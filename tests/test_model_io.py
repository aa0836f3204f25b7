import math

import numpy as np
import pytest

from feedrank.errors import DataError
from feedrank.indices import compute_indices
from feedrank.model_io import ModelBundle, read_model, write_model
from feedrank.states import BinSpec
from feedrank.transitions import build_model, derive_p0


def make_bundle(with_index=False):
    bins = BinSpec((1, 2, 3), (0.0, 2.0, math.inf))
    rng = np.random.default_rng(77)
    n = bins.n_states
    p1 = rng.dirichlet(np.ones(n), size=n)
    model = build_model(p1, epsilon=0.1, beta=0.9)
    bundle = ModelBundle(
        bins=bins,
        r_n=(1.0, 0.25),
        r_p=(0.125, 1.0),
        epsilon=model.epsilon,
        beta=0.9,
        p1=model.p1,
        meta={"train_window": "[0, 100)", "items_used": "42"},
    )
    if with_index:
        space = bundle.state_space()
        bundle.index = compute_indices(model, space.reward)
    return bundle


def test_round_trip_preserves_everything(tmp_path):
    bundle = make_bundle(with_index=True)
    path = tmp_path / "model.txt"
    write_model(bundle, path)
    back = read_model(path)
    assert back.bins == bundle.bins
    assert back.r_n == bundle.r_n
    assert back.r_p == bundle.r_p
    assert back.beta == bundle.beta
    assert np.array_equal(back.epsilon, bundle.epsilon)
    assert np.array_equal(back.p1, bundle.p1)
    assert np.array_equal(back.transition_model().p0,
                          bundle.transition_model().p0)
    assert back.meta == bundle.meta
    assert np.array_equal(back.index.g, bundle.index.g)
    assert np.array_equal(back.index.pi_order, bundle.index.pi_order)
    assert np.array_equal(back.index.y_values, bundle.index.y_values)


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


def v1_text(bundle):
    """The bundle in format v1, which also stored the reward vector and p0."""
    lines = [
        "# feedrank model, format v1", "[meta]",
        *(f"{k} = {v}" for k, v in bundle.meta.items()),
        "[config]", f"beta = {bundle.beta!r}",
        "epsilon = " + ",".join(repr(float(e)) for e in bundle.epsilon),
        "[bins]", "novelty_limits = 1,2,3", "popularity_limits = 0,2,inf",
        "[rewards]",
        "r_n = " + ",".join(repr(v) for v in bundle.r_n),
        "r_p = " + ",".join(repr(v) for v in bundle.r_p),
        "reward = " + ",".join(repr(float(v)) for v in bundle.state_space().reward),
    ]
    p0 = derive_p0(bundle.p1, bundle.epsilon)
    for name, mat in (("p1", bundle.p1), ("p0", p0)):
        lines.append(f"[{name}]")
        lines.extend(f"row_{i} = " + ",".join(repr(float(x)) for x in row)
                     for i, row in enumerate(mat))
    return "\n".join(lines) + "\n"


def test_v1_file_loads_to_the_same_bundle(tmp_path):
    bundle = make_bundle()
    v1 = tmp_path / "v1.txt"
    v1.write_text(v1_text(bundle))
    back = read_model(v1)
    assert back.meta == bundle.meta
    assert np.array_equal(back.p1, bundle.p1)
    assert np.array_equal(back.transition_model().p0,
                          bundle.transition_model().p0)
    v2 = tmp_path / "v2.txt"
    write_model(bundle, v2)
    rewritten = tmp_path / "rewritten.txt"
    write_model(back, rewritten)
    assert rewritten.read_bytes() == v2.read_bytes()


def tampered_v1(tmp_path, prefix, replacement):
    """A v1 file whose last line starting with ``prefix`` is replaced."""
    lines = v1_text(make_bundle()).splitlines()
    i = max(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines[i] = replacement
    path = tmp_path / "model.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_tampered_reward_vector_rejected(tmp_path):
    path = tampered_v1(tmp_path, "reward = ", "reward = " + ",".join(["0.5"] * 5))
    with pytest.raises(DataError) as exc_info:
        read_model(path)
    assert "reward" in str(exc_info.value)


def test_tampered_p0_rejected(tmp_path):
    # [p0] follows [p1], so the last row_0 is p0's; its replacement is a
    # valid probability row, just not the one p1 and epsilon give.
    path = tampered_v1(tmp_path, "row_0 = ", "row_0 = 1,0,0,0,0")
    with pytest.raises(DataError) as exc_info:
        read_model(path)
    assert "p0" in str(exc_info.value)


def test_wrong_row_count_rejected(tmp_path):
    path = tmp_path / "model.txt"
    write_model(make_bundle(), path)
    # Remove row_4 from p1.
    lines = [l for l in path.read_text().splitlines()
             if not l.startswith("row_4 = ")]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError):
        read_model(path)


def tampered_v2(tmp_path, prefix, replacement):
    """A v2 file with an index table whose line starting with ``prefix``
    is replaced."""
    path = tmp_path / "model.txt"
    write_model(make_bundle(with_index=True), path)
    lines = [replacement if line.startswith(prefix) else line
             for line in path.read_text().splitlines()]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_short_p1_row_rejected(tmp_path):
    # One value would broadcast over the whole row if it were accepted.
    path = tampered_v2(tmp_path, "row_3 = ", "row_3 = 0.5")
    with pytest.raises(DataError) as exc_info:
        read_model(path)
    assert "row_3" in str(exc_info.value)


def test_pi_order_that_is_not_a_permutation_rejected(tmp_path):
    order = make_bundle(with_index=True).index.pi_order.tolist()
    order[1] = order[0]
    path = tampered_v2(tmp_path, "pi_order = ",
                       "pi_order = " + ",".join(str(v) for v in order))
    with pytest.raises(DataError) as exc_info:
        read_model(path)
    assert "permutation" in str(exc_info.value)


def test_y_values_of_wrong_length_rejected(tmp_path):
    y = make_bundle(with_index=True).index.y_values
    path = tampered_v2(tmp_path, "y_values = ",
                       "y_values = " + ",".join(repr(float(v)) for v in y[:-1]))
    with pytest.raises(DataError) as exc_info:
        read_model(path)
    assert "y_values" in str(exc_info.value)


def test_g_that_disagrees_with_the_trace_rejected(tmp_path):
    g = make_bundle(with_index=True).index.g.copy()
    g[2] = np.nextafter(g[2], np.inf)
    path = tampered_v2(tmp_path, "g = ", "g = " + ",".join(repr(float(v)) for v in g))
    with pytest.raises(DataError) as exc_info:
        read_model(path)
    assert "disagrees" in str(exc_info.value)


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
