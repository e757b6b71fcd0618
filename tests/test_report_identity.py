"""Report-identity guard: a seeded grid of in-process runs hashed to one digest.

Every relay run over all four access paths, three terminal timeouts, three
policies, three relay PINs and two hard ceilings, plus direct runs over both
channels with and without the local unlock, is reduced to its report's
``to_dict()`` (or the reason its session was refused) and the secure
element's state at the end of the run. The sha256 over those records is
frozen below: a refactor that changes any report byte, outcome or end state
changes the digest.

The runs that do not time out are also hashed on their own: a change to how a
timed-out step is recorded moves the full digest but must leave that one.
"""
import hashlib
import itertools
import json
from collections import Counter

from serelay.latency import AccessPath
from serelay.profile import CountermeasurePolicy
from serelay.scenarios import run_pos_direct, run_relay_attack
from serelay.secure_element import ChannelOrigin, PREPAID_AID, SecureElement

SEEDS = (1, 7, 42, 1234)
TIMEOUTS = (None, 500.0, 2000.0)
POLICIES = {
    "none": CountermeasurePolicy(),
    "pin_required": CountermeasurePolicy(require_pin_on_card=True),
    "prepaid_internal_disabled": CountermeasurePolicy(
        internal_disabled_aids=frozenset({PREPAID_AID})
    ),
}
RELAY_PINS = (None, "1234", "9999")
CEILINGS = (None, 300.0)
DIRECT_POLICIES = (("none", None), ("pin_required", None), ("pin_required", "1234"))

GOLDEN_DIGEST = "8d637eaba54caad6a0358a45e0baf9385b38ee79457030b7c7cbffe3abac9a0a"
GOLDEN_RUNS = 1008
UNTIMED_DIGEST = "4c9a76ebb848a17f0c764e90d545b8ca36de3528e39687161e52a534b1aaa837"
UNTIMED_RUNS = 944


def _se_state(se: SecureElement) -> dict:
    return {"wallet_locked": se.wallet_locked, "atc": se.atc, "pin_retries": se.pin_retries}


def grid_records():
    for seed, path, timeout, policy, pin, ceiling in itertools.product(
        SEEDS, AccessPath, TIMEOUTS, POLICIES, RELAY_PINS, CEILINGS
    ):
        result = run_relay_attack(
            policy=POLICIES[policy],
            path=path,
            seed=seed,
            timeout_ms=timeout,
            relay_pin=pin,
            hard_ceiling_ms=ceiling,
            atc=seed,
        )
        yield {
            "run": ["relay", seed, path.value, timeout, policy, pin, ceiling],
            "session_error": result.session_error,
            "report": result.report.to_dict() if result.report is not None else None,
            "se": _se_state(result.se),
        }
    for seed, origin, unlock, timeout, (policy, pin) in itertools.product(
        SEEDS, ChannelOrigin, (True, False), TIMEOUTS, DIRECT_POLICIES
    ):
        se = SecureElement(policy=POLICIES[policy], atc=seed)
        report = run_pos_direct(
            origin=origin, se=se, unlock=unlock, pin=pin, seed=seed, timeout_ms=timeout
        )
        yield {
            "run": ["direct", seed, origin.value, unlock, timeout, policy, pin],
            "report": report.to_dict(),
            "se": _se_state(se),
        }


def report_digest() -> tuple[str, int, Counter, str]:
    """The grid's sha256, its run count, how often each outcome occurred and
    the sha256 of the runs that did not time out."""
    digest = hashlib.sha256()
    untimed = hashlib.sha256()
    runs = 0
    outcomes = Counter()
    for record in grid_records():
        line = json.dumps(record, sort_keys=True).encode("utf-8") + b"\n"
        digest.update(line)
        runs += 1
        report = record["report"]
        outcome = report["outcome"] if report is not None else record["session_error"]
        outcomes[outcome] += 1
        if outcome != "timed_out":
            untimed.update(line)
    return digest.hexdigest(), runs, outcomes, untimed.hexdigest()


def test_report_identity_digest():
    digest, runs, outcomes, untimed = report_digest()
    # the grid must reach every outcome, or an identical digest proves little
    assert set(outcomes) == {
        "approved",
        "declined",
        "timed_out",
        "card_removed",
        "unlock_failed",
        "access_denied",
    }, outcomes
    assert runs == GOLDEN_RUNS
    assert runs - outcomes["timed_out"] == UNTIMED_RUNS
    assert untimed == UNTIMED_DIGEST
    assert digest == GOLDEN_DIGEST
