import os
import stat

import pytest

from cvmkit.datasets import market_truth
from cvmkit.errors import CvmError, write_atomic
from cvmkit.regression import save_hierarchy
from cvmkit.simulate import save_truth
from cvmkit.survey import write_survey

WRITERS = {
    "write_survey": lambda sample, hierarchy, path: write_survey(sample, path),
    "save_hierarchy": lambda sample, hierarchy, path: save_hierarchy(hierarchy, path),
    "save_truth": lambda sample, hierarchy, path: save_truth(market_truth(), path),
}


@pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS)
@pytest.mark.parametrize(
    "target, reason",
    [("missing/out", "No such file or directory"), ("existing", "Is a directory")],
    ids=["missing-directory", "names-a-directory"],
)
def test_a_library_writer_names_a_path_it_cannot_write_and_leaves_no_temp_file(
    tmp_path, sample, hierarchy, write, target, reason
):
    (tmp_path / "existing").mkdir()
    path = tmp_path / target
    with pytest.raises(CvmError) as raised:
        write(sample, hierarchy, path)
    assert str(raised.value) == f"cannot write {path}: {reason}"
    assert [p.name for p in tmp_path.rglob("*")] == ["existing"]


def test_write_atomic_gives_the_mode_open_gives_and_leaves_the_umask_alone(tmp_path, monkeypatch):
    (tmp_path / "plain.txt").write_text("x")

    def umask(mask):  # shared by every thread, so a writer may not even read it this way
        raise AssertionError("write_atomic changed the process umask")

    monkeypatch.setattr(os, "umask", umask)
    write_atomic(tmp_path / "atomic.txt", "x")
    modes = [stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("plain.txt", "atomic.txt")]
    assert modes[0] == modes[1]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["atomic.txt", "plain.txt"]
