"""Desk-scale testbed for software relay attacks on secure-element payments.

Simulates every moving part of the attack in software: the phone's secure
element with its wallet applets, the relay app riding its internal channel,
a card emulator on the attacker's side, a POS terminal driving contactless
Mag-Stripe transactions, latency models for the relevant access paths, and
the countermeasures that break the attack.
"""
from .apdu import CommandApdu, MalformedApdu, ResponseApdu, UnsupportedLength
from .latency import AccessPath, LatencyModel, LatencyParams, VirtualClock
from .profile import CardProfile, CountermeasurePolicy
from .secure_element import ChannelOrigin, SecureElement
from .terminal import TerminalConfig, TransactionReport, run_transaction
from .tlv import TlvError, TlvNode

__version__ = "0.1.0"

__all__ = [
    "AccessPath",
    "CardProfile",
    "ChannelOrigin",
    "CommandApdu",
    "CountermeasurePolicy",
    "LatencyModel",
    "LatencyParams",
    "MalformedApdu",
    "ResponseApdu",
    "SecureElement",
    "TerminalConfig",
    "TlvError",
    "TlvNode",
    "TransactionReport",
    "UnsupportedLength",
    "VirtualClock",
    "run_transaction",
    "__version__",
]
