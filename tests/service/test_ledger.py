"""Outcome ledger round-trips and the canonical outcome projection."""

import json

import pytest

from repro.core.exceptions import ConfigurationError
from repro.core.rit import RIT
from repro.core.types import Job
from repro.service.epochs import EpochBatch
from repro.service.events import AskSubmitted
from repro.service.ledger import OutcomeLedger, canonical_outcome
from repro.workloads.scenarios import paper_scenario
from repro.workloads.users import UserDistribution


@pytest.fixture(autouse=True)
def close_ledgers(monkeypatch):
    """Close every ledger a test made once it ends, as ``serve`` closes its
    own; during the test an appended ledger keeps its file open."""
    made = []
    init = OutcomeLedger.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(OutcomeLedger, "__init__", tracking_init)
    yield
    for ledger in made:
        ledger.close()


def small_outcome(seed=0):
    job = Job.uniform(2, 4)
    scenario = paper_scenario(
        60, job, seed, distribution=UserDistribution(num_types=2)
    )
    mech = RIT(round_budget="until-complete")
    return mech.run(job, scenario.truthful_asks(), scenario.tree, seed)


def batch(index=0):
    events = (AskSubmitted(tick=0, user_id=0, task_type=0, capacity=1, value=1.0),)
    return EpochBatch(index=index, events=events, first_tick=0, last_tick=0)


class TestCanonicalOutcome:
    def test_excludes_measured_timings(self):
        doc = canonical_outcome(small_outcome())
        assert set(doc) == {
            "completed",
            "allocation",
            "auction_payments",
            "payments",
            "rounds",
        }

    def test_keys_are_json_object_keys(self):
        doc = canonical_outcome(small_outcome())
        assert all(isinstance(uid, str) for uid in doc["allocation"])
        assert all(isinstance(uid, str) for uid in doc["payments"])


class TestOutcomeLedger:
    def test_bad_run_id_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            OutcomeLedger(tmp_path, "../escape")

    def test_meta_round_trip(self, tmp_path):
        ledger = OutcomeLedger(tmp_path, "run-a")
        ledger.write_meta({"seed": 3, "queue_size": 8})
        assert ledger.read_meta() == {"seed": 3, "queue_size": 8}

    def test_missing_meta_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            OutcomeLedger(tmp_path, "run-a").read_meta()

    def test_append_read_round_trip_floats_exact(self, tmp_path):
        ledger = OutcomeLedger(tmp_path, "run-a")
        outcome = small_outcome()
        ledger.append(batch(0), outcome)
        ledger.append(batch(1), outcome)
        records = ledger.read_epochs()
        assert [r["epoch"] for r in records] == [0, 1]
        # JSON round-trips Python floats via repr: parsed payments must be
        # bit-identical to the in-memory outcome, not merely close.
        want = canonical_outcome(outcome)["payments"]
        assert records[0]["outcome"]["payments"] == want

    def test_read_epochs_empty(self, tmp_path):
        assert OutcomeLedger(tmp_path, "run-a").read_epochs() == []

    def test_rerun_into_a_written_ledger_is_refused(self, tmp_path):
        ledger = OutcomeLedger(tmp_path, "run-a")
        ledger.write_meta({"seed": 3})
        ledger.append(batch(0), small_outcome())
        meta = ledger.meta_path.read_bytes()
        epochs = ledger.epochs_path.read_bytes()
        with pytest.raises(ConfigurationError) as excinfo:
            OutcomeLedger(tmp_path, "run-a").write_meta({"seed": 4})
        assert str(ledger.epochs_path) in str(excinfo.value)
        assert ledger.meta_path.read_bytes() == meta
        assert ledger.epochs_path.read_bytes() == epochs

    def test_reopening_a_written_ledger_reads_it(self, tmp_path):
        ledger = OutcomeLedger(tmp_path, "run-a")
        ledger.write_meta({"seed": 3})
        ledger.append(batch(0), small_outcome())
        reopened = OutcomeLedger(tmp_path, "run-a")
        assert reopened.read_meta() == {"seed": 3}
        assert [r["epoch"] for r in reopened.read_epochs()] == [0]


class TestOpenHandle:
    def test_each_record_is_readable_while_the_file_is_open(self, tmp_path):
        ledger = OutcomeLedger(tmp_path, "run-a")
        outcome = small_outcome()
        for index in range(3):
            ledger.append(batch(index), outcome)
            # Flushed at once: a reader sees it before any close.
            assert [r["epoch"] for r in ledger.read_epochs()] == list(
                range(index + 1)
            )
            assert ledger.epochs_path.read_text().endswith("\n")
        ledger.close()

    def test_close_twice_is_harmless(self, tmp_path):
        ledger = OutcomeLedger(tmp_path, "run-a")
        ledger.close()  # never opened
        ledger.append(batch(0), small_outcome())
        ledger.close()
        ledger.close()
        assert [r["epoch"] for r in ledger.read_epochs()] == [0]

    def test_an_append_after_close_reopens_the_file(self, tmp_path):
        ledger = OutcomeLedger(tmp_path, "run-a")
        outcome = small_outcome()
        ledger.append(batch(0), outcome)
        ledger.close()
        ledger.append(batch(1), outcome)
        ledger.close()
        assert [r["epoch"] for r in ledger.read_epochs()] == [0, 1]

    def test_bytes_equal_one_open_per_append(self, tmp_path):
        # The kept handle writes what opening the file for each append did.
        ledger = OutcomeLedger(tmp_path, "run-a")
        outcome = small_outcome()
        lines = []
        for index in range(2):
            ledger.append(batch(index), outcome)
            record = {
                "epoch": index,
                "batch_events": 1,
                "first_tick": 0,
                "last_tick": 0,
                "outcome": canonical_outcome(outcome),
            }
            lines.append(json.dumps(record, sort_keys=True) + "\n")
        ledger.close()
        assert ledger.epochs_path.read_text(encoding="utf-8") == "".join(lines)


class TestTornTail:
    def ledger_with_tail(self, tmp_path, tail):
        ledger = OutcomeLedger(tmp_path, "run-a")
        outcome = small_outcome()
        ledger.append(batch(0), outcome)
        ledger.append(batch(1), outcome)
        # The ledger's own handle stays open while the tail is written.
        with open(ledger.epochs_path, "a", encoding="utf-8") as handle:
            handle.write(tail)
        return ledger

    def test_half_written_last_line_is_dropped_and_flagged(self, tmp_path):
        ledger = self.ledger_with_tail(tmp_path, '{"batch_events": 1, "epo')
        assert [r["epoch"] for r in ledger.read_epochs()] == [0, 1]
        assert ledger.torn_tail

    def test_complete_ledger_is_not_flagged(self, tmp_path):
        ledger = self.ledger_with_tail(tmp_path, "")
        assert [r["epoch"] for r in ledger.read_epochs()] == [0, 1]
        assert not ledger.torn_tail

    def test_complete_record_missing_only_its_newline_is_kept(self, tmp_path):
        ledger = self.ledger_with_tail(tmp_path, '{"epoch": 2}')
        assert [r["epoch"] for r in ledger.read_epochs()] == [0, 1, 2]
        assert not ledger.torn_tail

    def test_malformed_line_followed_by_more_lines_raises(self, tmp_path):
        ledger = self.ledger_with_tail(tmp_path, '{"epo\n{"epoch": 3}\n')
        with pytest.raises(json.JSONDecodeError):
            ledger.read_epochs()

    def test_malformed_terminated_last_line_raises(self, tmp_path):
        ledger = self.ledger_with_tail(tmp_path, '{"epo\n')
        with pytest.raises(json.JSONDecodeError):
            ledger.read_epochs()
