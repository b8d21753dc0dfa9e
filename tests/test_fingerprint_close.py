"""``tools/fingerprint.py --close`` on two hand-made ``--values`` files."""

import importlib.util
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"
spec = importlib.util.spec_from_file_location("fingerprint", TOOL)
fingerprint = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fingerprint)


def save(path, runs):
    np.savez(path, **{f"{name}|{field}": np.asarray(array)
                      for name, arrays in runs.items()
                      for field, array in arrays.items()})
    return str(path)


def test_max_lists_the_runs_whose_counts_differ(tmp_path):
    def run(table, passes, steps):
        return {"tables": [table], "marginals": [table],
                "counts": [passes, steps]}

    first = save(tmp_path / "a.npz", {"same": run(0.25, 1, 8),
                                      "steps": run(0.5, 2, 9),
                                      "raised": run(0.5, 1, 1)})
    second = save(tmp_path / "b.npz", {"same": run(0.25 + 2 ** -54, 1, 8),
                                       "steps": run(0.5, 2, 10)})
    got = fingerprint.closeness(first, second)
    assert got["max"] == {"table": 2 ** -54, "marginal": 2 ** -54,
                          "counts_differ": ["raised", "steps"]}
    assert got["runs"]["raised"] == {"table": None, "marginal": None,
                                     "passes": [1, None], "steps": [1, None]}
    same = save(tmp_path / "c.npz", {"same": run(0.25, 1, 8)})
    assert fingerprint.closeness(same, same)["max"]["counts_differ"] == []


def test_an_entry_without_counts_differs_only_where_one_side_raised(tmp_path):
    def posterior(table):  # as ``stacked`` and ``oracle`` entries save it
        return {"tables": [table, 1 - table], "marginals": [table]}

    first = save(tmp_path / "a.npz", {"stacked/0": posterior(0.25),
                                      "oracle/0": posterior(0.5)})
    second = save(tmp_path / "b.npz",
                  {"stacked/0": posterior(0.25 + 2 ** -54)})
    got = fingerprint.closeness(first, second)
    assert got["max"] == {"table": 2 ** -54, "marginal": 2 ** -54,
                          "counts_differ": ["oracle/0"]}
    assert got["runs"]["stacked/0"]["passes"] == [None, None]
    assert got["runs"]["oracle/0"] == {"table": None, "marginal": None,
                                       "passes": [None, None],
                                       "steps": [None, None]}
