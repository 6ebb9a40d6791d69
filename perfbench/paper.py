"""``paper_err_pct``: how far the modelled headline numbers sit from the
paper's, using the cited table in ``paper_values.json``."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence

TABLE = Path(__file__).with_name("paper_values.json")


def quantities(workload: str) -> List[dict]:
    with TABLE.open() as fh:
        rows = json.load(fh)["quantities"]
    return [row for row in rows if row["workload"] == workload]


def _peak(figure, panel: str, label: str) -> float:
    if label == "*":
        return max(series.peak for series in figure.panels[panel])
    return figure.series(panel, label).peak


def modelled(row: dict, figures_by_id: Dict[str, object]) -> float:
    figure = figures_by_id[row["figure"]]
    value = _peak(figure, row["panel"], row["series"])
    if "over" in row:
        value /= _peak(figure, row["panel"], row["over"])
    return value


def paper_err_pct(workload: str, figures: Sequence) -> float:
    """Mean of |modelled / paper - 1| over the workload's quantities, in %."""
    by_id = {figure.fig_id: figure for figure in figures}
    rows = quantities(workload)
    errors = [abs(modelled(row, by_id) / row["paper"] - 1.0) for row in rows]
    return 100.0 * sum(errors) / len(errors)
