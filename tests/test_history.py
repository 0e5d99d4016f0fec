import numpy as np
import pytest

from staleburner.history import HistoryTable, load_table_dump, persistence_stats


def make_table(n=10, dims=(4, 3)):
    return HistoryTable(n, list(dims))


def test_pull_after_push_is_identity():
    t = make_table()
    rows = np.arange(12, dtype=np.float32).reshape(3, 4)
    t.push(1, np.array([2, 5, 7]), rows, step=0)
    got, cold = t.pull(1, np.array([2, 5, 7]))
    assert cold == 0
    assert np.array_equal(got, rows)


def test_cold_rows_read_as_zero_init():
    t = make_table()
    got, cold = t.pull(1, np.array([3]))
    assert cold == 1
    assert np.array_equal(got, np.zeros((1, 4), dtype=np.float32))


def test_last_writer_wins_across_steps():
    t = make_table()
    t.push(1, np.array([1]), np.full((1, 4), 3.0, dtype=np.float32), step=3)
    t.push(1, np.array([1]), np.full((1, 4), 5.0, dtype=np.float32), step=5)
    got, _ = t.pull(1, np.array([1]))
    assert np.all(got == 5.0)
    assert t.last_update[1, 0] == 5


def test_same_step_double_push_keeps_last_value():
    # two refresh batches touching the same row within one model step
    t = make_table()
    t.push(1, np.array([4]), np.full((1, 4), 1.0, dtype=np.float32), step=5)
    t.push(1, np.array([4]), np.full((1, 4), 2.0, dtype=np.float32), step=5)
    got, _ = t.pull(1, np.array([4]))
    assert np.all(got == 2.0)
    stats = persistence_stats(t, now=5)
    assert stats[0].max == 0


def test_disjoint_pushes_commute():
    a, b = make_table(), make_table()
    r1 = np.ones((2, 4), dtype=np.float32)
    r2 = np.full((2, 4), 7.0, dtype=np.float32)
    a.push(1, np.array([0, 1]), r1, step=0)
    a.push(1, np.array([2, 3]), r2, step=0)
    b.push(1, np.array([2, 3]), r2, step=0)
    b.push(1, np.array([0, 1]), r1, step=0)
    assert np.array_equal(a.layers[0], b.layers[0])
    assert np.array_equal(a.last_update, b.last_update)


def test_push_validations():
    t = make_table()
    with pytest.raises(ValueError, match="shape"):
        t.push(1, np.array([0]), np.zeros((1, 3), dtype=np.float32), step=0)
    t.push(2, np.array([0]), np.zeros((1, 3), dtype=np.float32), step=4)
    with pytest.raises(ValueError, match="regression"):
        t.push(2, np.array([0]), np.zeros((1, 3), dtype=np.float32), step=2)
    with pytest.raises(ValueError, match="layer"):
        t.pull(3, np.array([0]))
    with pytest.raises(ValueError, match="layer"):
        t.pull(0, np.array([0]))


def test_persistence_zero_after_full_refresh():
    t = make_table(n=6)
    t.push(1, np.arange(6), np.zeros((6, 4), dtype=np.float32), step=9)
    stats = persistence_stats(t, now=9)
    assert stats[0].mean == 0.0
    assert stats[0].max == 0
    assert stats[0].cold == 0
    assert stats[1].cold == 6  # untouched layer stays cold


def test_persistence_round_robin_cycle():
    # four equal clusters, one pushed per step; measured just before each
    # step's push, persistences over the table are {1, 2, 3, 4}
    n, c = 20, 4
    clusters = [np.arange(i * 5, (i + 1) * 5) for i in range(c)]
    t = HistoryTable(n, [2])
    for step in range(16):
        if step >= c:
            stats = persistence_stats(t, now=step)[0]
            assert stats.cold == 0
            assert stats.max == 4
            assert stats.mean == pytest.approx(2.5)
        t.push(1, clusters[step % c], np.zeros((5, 2), dtype=np.float32), step=step)


def test_persistence_rejects_time_travel():
    t = make_table()
    t.push(1, np.array([0]), np.zeros((1, 4), dtype=np.float32), step=7)
    with pytest.raises(ValueError):
        persistence_stats(t, now=3)


def test_dump_round_trip(tmp_path):
    t = make_table(n=5, dims=(3,))
    vals = np.arange(15, dtype=np.float32).reshape(5, 3)
    t.push(1, np.arange(5), vals, step=0)
    paths = t.dump(str(tmp_path / "table"))
    assert paths == [str(tmp_path / "table_l1.bin")]
    back = load_table_dump(paths[0])
    assert np.array_equal(back, vals)
    raw = (tmp_path / "table_l1.bin").read_bytes()
    assert len(raw) == 8 + 5 * 3 * 4
    assert raw[:8] == (5).to_bytes(4, "little") + (3).to_bytes(4, "little")


@pytest.mark.parametrize("cut,expected,found", [
    (lambda raw: raw[:3], "at least its 8-byte header", "has 3 bytes"),
    (lambda raw: raw[:-4], "takes 68 bytes", "has 64"),
    (lambda raw: raw + b"\0", "takes 68 bytes", "has 69"),
], ids=["3-bytes", "short-body", "trailing-bytes"])
def test_load_table_dump_refuses_a_wrong_size(tmp_path, cut, expected, found):
    t = make_table(n=5, dims=(3,))
    (path,) = t.dump(str(tmp_path / "table"))
    with open(path, "rb") as f:
        raw = f.read()
    with open(path, "wb") as f:
        f.write(cut(raw))
    with pytest.raises(ValueError, match=expected) as err:
        load_table_dump(path)
    assert path in str(err.value) and found in str(err.value)
