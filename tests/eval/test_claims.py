"""The claims registry and the committed fidelity scorecard (FIDELITY.csv)."""

import csv
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.eval.claims import PAPER_CLAIMS, Claim
from repro.session import Session

SCORECARD = Path(__file__).resolve().parents[2] / "FIDELITY.csv"


def test_claim_ids_are_unique():
    ids = [claim.id for claim in PAPER_CLAIMS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("band", [(None, float("inf")), (2.0, 2.0), (3.0, 1.0)])
def test_claim_rejects_infinite_or_empty_band(band):
    with pytest.raises(ValueError):
        Claim("x", "fig", 1.0, "speedup", "key", band)


def test_within_is_strict_and_none_for_report_only():
    claim = Claim("x", "fig", 1.0, "speedup", "key", (1.3, 2.0))
    assert claim.within(1.5) and not claim.within(2.0) and not claim.within(1.3)
    assert Claim("y", "fig", 1.0, "speedup", "key").within(1.5) is None


def test_committed_scorecard_is_current():
    """A model change that moves any claim shows up as a FIDELITY.csv diff.

    Regenerate with ``python -m repro.cli run --scenario fidelity --format
    csv --output FIDELITY.csv``.
    """
    with SCORECARD.open() as handle:
        committed = list(csv.DictReader(handle))
    fresh = Session().run("fidelity").rows
    assert [row["id"] for row in committed] == [row["id"] for row in fresh]
    for old, new in zip(committed, fresh):
        for column in ("figure", "paper", "band_low", "band_high"):
            assert old[column] == ("" if new[column] is None else str(new[column])), (
                f"{new['id']}: {column} changed; regenerate FIDELITY.csv"
            )
        assert float(old["model"]) == pytest.approx(new["model"], rel=1e-3), (
            f"{new['id']}: model {new['model']:.6g} vs committed {old['model']}; "
            "regenerate FIDELITY.csv"
        )


def test_fidelity_json_is_strict(capsys):
    assert main(["run", "--scenario", "fidelity", "--batch", "1", "--format", "json"]) == 0
    text = capsys.readouterr().out
    assert "Infinity" not in text and "NaN" not in text
    payload = json.loads(text)
    assert [row["id"] for row in payload["rows"]] == [claim.id for claim in PAPER_CLAIMS]
    assert payload["headline"]["claims"] == len(PAPER_CLAIMS)
