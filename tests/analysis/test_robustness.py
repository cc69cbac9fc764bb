"""Robustness certifier: static verdicts + run cross-checks.

First half pins the certifier's verdict for every (workload, level)
pair the simulator ships.  Second half closes the loop against real
runs: a certificate of robustness must mean zero observed anomalies
(across seeds), and a non-robust verdict must be *witnessed* — the run
under the weakened level gains throughput and admits exactly the
anomaly class the certificate predicted.
"""

from itertools import combinations

import pytest

from repro.analysis.robustness import TxnTemplate, certify
from repro.bench.harness import SMOKE, run_point, run_smallbank_point
from repro.workloads import (SmallbankConfig, SmallbankWorkload, YcsbConfig,
                             YcsbWorkload)


def _smallbank(query_proportion=0.0, procedures=None):
    """The templates a SmallBank workload of this mix derives."""
    return SmallbankWorkload(SmallbankConfig(
        num_accounts=10, query_proportion=query_proportion,
        procedures=procedures)).templates()


def _ycsb(mode, ops_per_txn=1):
    """The template a YCSB workload derives for ``mode``."""
    return YcsbWorkload(YcsbConfig(
        record_count=10, ops_per_txn=ops_per_txn)).templates(mode)


# -- static verdicts ----------------------------------------------------------

def test_serializable_trivially_robust():
    report = certify(_ycsb("rmw"), "serializable")
    assert report.robust


def test_unknown_level_rejected():
    with pytest.raises(ValueError, match="unknown isolation level"):
        certify(_ycsb("rmw"), "repeatable_read")


def test_unknown_template_names_rejected():
    with pytest.raises(ValueError, match=r"\['typo'\].*amalgamate"):
        SmallbankWorkload(SmallbankConfig(
            procedures=("deposit_checking", "typo")))
    with pytest.raises(KeyError, match="scan"):
        _ycsb("scan")


def test_ycsb_rmw_verdicts():
    """Read-modify-writes: SI's first-committer-wins closes the race;
    RC admits the textbook lost-update loop."""
    assert certify(_ycsb("rmw"), "snapshot").robust
    rc = certify(_ycsb("rmw"), "read_committed")
    assert not rc.robust
    assert rc.predicted_anomaly == "lost_update"
    assert rc.counterexample == ["ycsb_rmw", "ycsb_rmw"]


def test_two_key_rmw_verdicts_match_one_key():
    """tidb's ablation row draws two keys per rmw: its template has two
    params, and the verdicts are the one-key template's."""
    (two,) = _ycsb("rmw", ops_per_txn=2)
    assert two.reads == two.writes == (("usertable", "p0"),
                                       ("usertable", "p1"))
    assert certify([two], "snapshot").robust
    rc = certify([two], "read_committed")
    assert (rc.counterexample, rc.predicted_anomaly) == \
        (["ycsb_rmw", "ycsb_rmw"], "lost_update")


def test_ycsb_blind_writes_and_queries_robust_everywhere():
    for mode in ("update", "query"):
        for level in ("read_committed", "snapshot"):
            assert certify(_ycsb(mode), level).robust, (mode, level)


def test_smallbank_update_mix_verdicts():
    """The five update procedures: robust against SI (every conflict
    pair overlaps on a write, so FCW aborts one), not against RC."""
    templates = _smallbank()
    assert certify(templates, "snapshot").robust
    rc = certify(templates, "read_committed")
    assert not rc.robust
    assert rc.predicted_anomaly == "lost_update"


def test_smallbank_with_balance_breaks_si():
    """Adding the read-only Balance template creates Fekete's dangerous
    structure: balance -> write_check -> transact_savings."""
    report = certify(_smallbank(query_proportion=0.3), "snapshot")
    assert not report.robust
    assert report.predicted_anomaly == "write_skew"
    assert set(report.counterexample) == {"balance", "write_check",
                                          "transact_savings"}


# -- the derived templates are faithful to the generators ---------------------

def _draws():
    """``(workload, templates() args, the run's draw, a draw by template
    name)`` per covered configuration."""
    for query in (0.0, 0.4):
        bank = SmallbankWorkload(SmallbankConfig(
            num_accounts=50, theta=0.9, query_proportion=query, seed=3))
        yield pytest.param(
            bank, (), bank.next_transaction,
            lambda name, bank=bank: getattr(bank, name)("client-0"),
            id=f"smallbank-query{query}")
    for mode, method in YcsbWorkload.MODES.items():
        for ops in (1, 2, 4):
            ycsb = YcsbWorkload(YcsbConfig(record_count=50, theta=0.9,
                                           ops_per_txn=ops, seed=3))
            draw = getattr(ycsb, method)
            yield pytest.param(ycsb, (mode,), draw,
                               lambda _name, draw=draw: draw(),
                               id=f"ycsb-{mode}-{ops}ops")


@pytest.mark.parametrize("workload,args,draw,draw_named", _draws())
def test_every_drawn_transaction_abstracts_onto_a_template(
        workload, args, draw, draw_named):
    """200 seeded draws from the run's stream: each one's read keys,
    written keys and key owners are exactly one of the workload's
    templates, and every template is drawn.  Then 20 draws per template
    name: each is that template (two procedures of one shape cannot
    stand in for each other)."""
    templates = workload.templates(*args)
    shapes = {(t.reads, t.writes) for t in templates}
    drawn = set()
    for _ in range(200):
        txn = TxnTemplate.of("drawn", draw(), workload.atom)
        assert (txn.reads, txn.writes) in shapes, txn
        drawn.add((txn.reads, txn.writes))
    assert drawn == shapes
    for template in templates:
        for _ in range(20):
            assert TxnTemplate.of(template.name, draw_named(template.name),
                                  workload.atom) == template


# -- every shipped template set, pinned -----------------------------------

TS, DC, SP = "transact_savings", "deposit_checking", "send_payment"
WC, AM, BAL, RMW = "write_check", "amalgamate", "balance", "ycsb_rmw"
_PROCEDURES = {"ts": TS, "dc": DC, "sp": SP, "wc": WC, "am": AM}
_ROBUST = (True, None, None)

#: ``(robust, counterexample, predicted_anomaly)`` per level, (read
#: committed, snapshot), for every non-empty SmallBank procedure subset
#: (``bal``: with the Balance query) and every YCSB mode.
_CERTIFIED = {
    "ts": ((False, [TS, TS], "lost_update"), _ROBUST),
    "ts bal": ((False, [BAL, TS, BAL], "lost_update"), _ROBUST),
    "dc": ((False, [DC, DC], "lost_update"), _ROBUST),
    "dc bal": ((False, [BAL, DC, BAL], "lost_update"), _ROBUST),
    "sp": ((False, [SP, SP], "lost_update"), _ROBUST),
    "sp bal": ((False, [BAL, SP, BAL], "lost_update"), _ROBUST),
    "wc": ((False, [WC, WC], "lost_update"), _ROBUST),
    "wc bal": ((False, [BAL, WC, BAL], "lost_update"), _ROBUST),
    "am": ((False, [AM, AM], "lost_update"), _ROBUST),
    "am bal": ((False, [AM, AM], "lost_update"), _ROBUST),
    "ts dc": ((False, [DC, DC], "lost_update"), _ROBUST),
    "ts dc bal": ((False, [BAL, DC, BAL], "lost_update"), _ROBUST),
    "ts sp": ((False, [SP, SP], "lost_update"), _ROBUST),
    "ts sp bal": ((False, [BAL, SP, BAL], "lost_update"), _ROBUST),
    "ts wc": ((False, [TS, TS], "lost_update"), _ROBUST),
    "ts wc bal": ((False, [BAL, TS, BAL], "lost_update"),
                  (False, [BAL, WC, TS, BAL], "write_skew")),
    "ts am": ((False, [AM, AM], "lost_update"), _ROBUST),
    "ts am bal": ((False, [AM, AM], "lost_update"), _ROBUST),
    "dc sp": ((False, [DC, DC], "lost_update"), _ROBUST),
    "dc sp bal": ((False, [BAL, DC, BAL], "lost_update"), _ROBUST),
    "dc wc": ((False, [DC, DC], "lost_update"), _ROBUST),
    "dc wc bal": ((False, [BAL, DC, BAL], "lost_update"), _ROBUST),
    "dc am": ((False, [AM, AM], "lost_update"), _ROBUST),
    "dc am bal": ((False, [AM, AM], "lost_update"), _ROBUST),
    "sp wc": ((False, [SP, SP], "lost_update"), _ROBUST),
    "sp wc bal": ((False, [BAL, SP, BAL], "lost_update"), _ROBUST),
    "sp am": ((False, [AM, AM], "lost_update"), _ROBUST),
    "sp am bal": ((False, [AM, AM], "lost_update"), _ROBUST),
    "wc am": ((False, [AM, AM], "lost_update"), _ROBUST),
    "wc am bal": ((False, [AM, AM], "lost_update"), _ROBUST),
    "ts dc sp": ((False, [DC, DC], "lost_update"), _ROBUST),
    "ts dc sp bal": ((False, [BAL, DC, BAL], "lost_update"), _ROBUST),
    "ts dc wc": ((False, [DC, DC], "lost_update"), _ROBUST),
    "ts dc wc bal": ((False, [BAL, DC, BAL], "lost_update"),
                     (False, [BAL, WC, TS, BAL], "write_skew")),
    "ts dc am": ((False, [AM, AM], "lost_update"), _ROBUST),
    "ts dc am bal": ((False, [AM, AM], "lost_update"), _ROBUST),
    "ts sp wc": ((False, [SP, SP], "lost_update"), _ROBUST),
    "ts sp wc bal": ((False, [BAL, SP, BAL], "lost_update"),
                     (False, [BAL, WC, TS, BAL], "write_skew")),
    "ts sp am": ((False, [AM, AM], "lost_update"), _ROBUST),
    "ts sp am bal": ((False, [AM, AM], "lost_update"), _ROBUST),
    "ts wc am": ((False, [AM, AM], "lost_update"), _ROBUST),
    "ts wc am bal": ((False, [AM, AM], "lost_update"),
                     (False, [BAL, WC, TS, BAL], "write_skew")),
    "dc sp wc": ((False, [DC, DC], "lost_update"), _ROBUST),
    "dc sp wc bal": ((False, [BAL, DC, BAL], "lost_update"), _ROBUST),
    "dc sp am": ((False, [AM, AM], "lost_update"), _ROBUST),
    "dc sp am bal": ((False, [AM, AM], "lost_update"), _ROBUST),
    "dc wc am": ((False, [AM, AM], "lost_update"), _ROBUST),
    "dc wc am bal": ((False, [AM, AM], "lost_update"), _ROBUST),
    "sp wc am": ((False, [AM, AM], "lost_update"), _ROBUST),
    "sp wc am bal": ((False, [AM, AM], "lost_update"), _ROBUST),
    "ts dc sp wc": ((False, [DC, DC], "lost_update"), _ROBUST),
    "ts dc sp wc bal": ((False, [BAL, DC, BAL], "lost_update"),
                        (False, [BAL, WC, TS, BAL], "write_skew")),
    "ts dc sp am": ((False, [AM, AM], "lost_update"), _ROBUST),
    "ts dc sp am bal": ((False, [AM, AM], "lost_update"), _ROBUST),
    "ts dc wc am": ((False, [AM, AM], "lost_update"), _ROBUST),
    "ts dc wc am bal": ((False, [AM, AM], "lost_update"),
                        (False, [BAL, WC, TS, BAL], "write_skew")),
    "ts sp wc am": ((False, [AM, AM], "lost_update"), _ROBUST),
    "ts sp wc am bal": ((False, [AM, AM], "lost_update"),
                        (False, [BAL, WC, TS, BAL], "write_skew")),
    "dc sp wc am": ((False, [AM, AM], "lost_update"), _ROBUST),
    "dc sp wc am bal": ((False, [AM, AM], "lost_update"), _ROBUST),
    "ts dc sp wc am": ((False, [AM, AM], "lost_update"), _ROBUST),
    "ts dc sp wc am bal": ((False, [AM, AM], "lost_update"),
                           (False, [BAL, WC, TS, BAL], "write_skew")),
    "ycsb_update": (_ROBUST, _ROBUST),
    "ycsb_rmw": ((False, [RMW, RMW], "lost_update"), _ROBUST),
    "ycsb_query": (_ROBUST, _ROBUST),
}


def _template_set(label):
    if label.startswith("ycsb_"):
        return _ycsb(label.removeprefix("ycsb_"))
    names = label.split()
    query = 0.3 if names[-1] == "bal" else 0.0
    return _smallbank(query, [_PROCEDURES[n] for n in names if n != "bal"])


def test_pinned_table_covers_every_shipped_set():
    subsets = [" ".join(c) for size in range(1, 6)
               for c in combinations(_PROCEDURES, size)]
    expected = {f"{s}{q}" for s in subsets for q in ("", " bal")} \
        | {"ycsb_update", "ycsb_rmw", "ycsb_query"}
    assert set(_CERTIFIED) == expected and len(expected) == 65


@pytest.mark.parametrize("level", ["read_committed", "snapshot"])
@pytest.mark.parametrize("label", list(_CERTIFIED))
def test_certify_matches_pinned_table(label, level):
    report = certify(_template_set(label), level)
    cell = _CERTIFIED[label][level == "snapshot"]
    assert (report.robust, report.counterexample,
            report.predicted_anomaly) == cell


# -- run cross-checks ---------------------------------------------------------

def _anomalies(result):
    return {k: v for k, v in result.extras["anomalies"].items() if v}


@pytest.mark.parametrize("seed", [11, 23])
def test_certified_robust_configs_run_clean(seed):
    """Robust certificates must hold on real histories, across seeds."""
    assert certify(_smallbank(), "snapshot").robust
    sb = run_smallbank_point("quorum", scale=SMOKE, num_accounts=200,
                             theta=0.9, seed=seed,
                             extras={"isolation": "snapshot"})
    assert sb.extras["serializable_history"] is True
    assert _anomalies(sb) == {}

    assert certify(_ycsb("rmw"), "snapshot").robust
    yc = run_point("etcd", scale=SMOKE, mode="rmw", theta=0.9, seed=seed,
                   extras={"isolation": "snapshot"})
    assert yc.extras["serializable_history"] is True
    assert _anomalies(yc) == {}


def test_non_robust_rc_gains_throughput_and_admits_lost_updates():
    """The flip side of the certificate: SmallBank is NOT robust
    against RC, and the run shows both the predicted anomaly class and
    the throughput it buys."""
    verdict = certify(_smallbank(), "read_committed")
    assert not verdict.robust and verdict.predicted_anomaly == "lost_update"
    ser = run_smallbank_point("quorum", scale=SMOKE, num_accounts=200,
                              theta=0.9, seed=11,
                              extras={"isolation": "serializable"})
    rc = run_smallbank_point("quorum", scale=SMOKE, num_accounts=200,
                             theta=0.9, seed=11,
                             extras={"isolation": "read_committed"})
    assert rc.tps > ser.tps, (rc.tps, ser.tps)
    assert rc.extras["serializable_history"] is False
    assert rc.extras["anomalies"]["lost_update"] > 0
    assert ser.extras["serializable_history"] is True


@pytest.mark.parametrize("seed", [11, 23])
def test_non_robust_si_mix_admits_predicted_write_skew(seed):
    """The SI counterexample is live: with Balance queries mixed in,
    etcd under block-free SI admits pure write skew — the exact class
    the static witness cycle predicts, and no other."""
    verdict = certify(_smallbank(query_proportion=0.4), "snapshot")
    assert not verdict.robust and verdict.predicted_anomaly == "write_skew"
    # The 3-txn coincidence needs a longer run than SMOKE's 300 txns.
    scale = SMOKE.derive(measure_txns=3000)
    res = run_smallbank_point("etcd", scale=scale, num_accounts=50,
                              theta=1.0, query_proportion=0.4, seed=seed,
                              extras={"isolation": "snapshot"})
    assert res.extras["serializable_history"] is False
    anomalies = _anomalies(res)
    assert anomalies.get("write_skew", 0) > 0, anomalies
    assert set(anomalies) == {"write_skew"}, anomalies
