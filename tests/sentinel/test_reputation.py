"""Beta-reputation fold (`repro.sentinel.reputation`)."""

import numpy as np
import pytest

from repro.core.exceptions import ConfigurationError
from repro.sentinel.reputation import ReputationBook
from tests.sentinel.reference_reputation import DictReputationBook


class TestReputationBook:
    def test_unobserved_user_has_no_score(self):
        assert ReputationBook().score(7) is None

    def test_posterior_mean_fold(self):
        book = ReputationBook()
        book.observe_epoch(participants=[1, 2], winners=[1])
        assert book.score(1) == (1 + 1) / (1 + 0 + 2)  # α=1, β=0
        assert book.score(2) == (0 + 1) / (0 + 1 + 2)  # α=0, β=1

    def test_scores_stay_in_open_unit_interval(self):
        book = ReputationBook()
        for _ in range(50):
            book.observe_epoch(participants=[1, 2], winners=[1])
        assert 0.0 < book.score(2) < book.score(1) < 1.0

    def test_withdrawal_penalty_is_weighted(self):
        book = ReputationBook(withdrawal_penalty=3)
        book.observe_withdrawal(5)
        assert book.score(5) == (0 + 1) / (0 + 3 + 2)

    def test_bad_penalty_rejected(self):
        with pytest.raises(ConfigurationError):
            ReputationBook(withdrawal_penalty=0)

    def test_fold_is_order_insensitive_per_epoch(self):
        a, b = ReputationBook(), ReputationBook()
        a.observe_epoch(participants=[1, 2, 3], winners=[2])
        b.observe_epoch(participants=[3, 1, 2], winners=[2])
        assert a.to_dict() == b.to_dict()

    def test_summary_folds_in_sorted_id_order(self):
        book = ReputationBook()
        book.observe_epoch(participants=[9, 1, 5], winners=[1])
        summary = book.summary(floor=0.4)
        assert summary["users"] == 3.0
        assert summary["flagged"] == 2.0  # losers sit at 1/3 < 0.4
        assert summary["minimum"] == pytest.approx(1 / 3)

    def test_empty_summary_is_the_prior(self):
        summary = ReputationBook().summary(floor=0.25)
        assert summary == {
            "users": 0.0, "mean": 0.5, "minimum": 0.5, "flagged": 0.0,
        }

    def test_round_trip(self):
        book = ReputationBook(withdrawal_penalty=2)
        book.observe_epoch(participants=[1, 2], winners=[1])
        book.observe_withdrawal(2)
        clone = ReputationBook.from_dict(book.to_dict())
        assert clone.to_dict() == book.to_dict()
        assert clone.score(2) == book.score(2)


def assert_same_scores(book, oracle, probes):
    for uid in probes:
        got, want = book.score(uid), oracle.score(uid)
        assert type(got) is type(want)
        if want is not None:
            assert got.hex() == want.hex(), uid
        assert (uid in book) == (uid in oracle)


def assert_same_book(book, oracle, floor):
    got, want = book.summary(floor), oracle.summary(floor)
    assert list(got) == list(want)
    for key, value in want.items():
        assert type(got[key]) is float, key
        assert got[key].hex() == value.hex(), key
    assert book.to_dict() == oracle.to_dict()
    assert len(book) == len(oracle)


#: Sparse ids: small ones, ones at and above 2^40, and ones near 2^63.
ID_POOL = np.array(
    list(range(40))
    + [2**40 + 2**20 * k for k in range(40)]
    + [2**62 + 7 * k for k in range(20)],
    dtype=np.int64,
)


class TestMatchesDictBook:
    """The sorted-column book equals the dict oracle bit for bit."""

    @pytest.mark.parametrize("seed", range(60))
    def test_seeded_epochs_and_withdrawals(self, seed):
        rng = np.random.default_rng(seed)
        penalty = int(rng.integers(1, 4))
        floor = float(rng.choice([0.25, 0.4, 0.5]))
        book = ReputationBook(withdrawal_penalty=penalty)
        oracle = DictReputationBook(withdrawal_penalty=penalty)
        probes = ID_POOL.tolist() + [41, 2**40 + 1]
        for epoch in range(8):
            # Withdrawals, some before any epoch, some repeated, some of
            # users the book has never seen.
            for uid in rng.choice(ID_POOL, rng.integers(0, 6)).tolist():
                book.observe_withdrawal(uid)
                oracle.observe_withdrawal(uid)
            # Scores read the pending withdrawals before any fold.
            assert_same_scores(book, oracle, probes)
            participants = rng.permutation(ID_POOL)[: rng.integers(0, 80)]
            winners = rng.choice(ID_POOL, rng.integers(0, 12)).tolist()
            as_list = bool(epoch % 2)
            book.observe_epoch(
                participants.tolist() if as_list else participants, winners
            )
            oracle.observe_epoch(participants.tolist(), winners)
            assert_same_scores(book, oracle, probes)
            assert_same_book(book, oracle, floor)

    def test_withdrawals_before_any_epoch(self):
        book, oracle = ReputationBook(), DictReputationBook()
        for uid in (2**41, 3, 2**41, 2**41):
            book.observe_withdrawal(uid)
            oracle.observe_withdrawal(uid)
        assert_same_scores(book, oracle, [3, 2**41, 5])
        assert_same_book(book, oracle, 0.25)
        assert book.score(2**41) == 1 / (6 + 2)

    def test_repeated_listing_counts_each_time(self):
        book, oracle = ReputationBook(), DictReputationBook()
        for participants, winners in (([4, 9, 4, 4], [4]), ([9, 9, 2**45], [7])):
            book.observe_epoch(participants, winners)
            oracle.observe_epoch(participants, winners)
        assert_same_scores(book, oracle, [2, 4, 7, 9, 2**45])
        assert_same_book(book, oracle, 0.4)

    def test_round_trip_keeps_pending_withdrawals(self):
        book = ReputationBook(withdrawal_penalty=3)
        book.observe_epoch(np.array([2**40, 5], dtype=np.int64), [5])
        book.observe_withdrawal(2**40)
        book.observe_withdrawal(11)
        clone = ReputationBook.from_dict(book.to_dict())
        assert clone.to_dict() == book.to_dict()
        assert [clone.score(uid) for uid in (5, 11, 2**40)] == [
            book.score(uid) for uid in (5, 11, 2**40)
        ]
