import json

import pytest

from serelay.profile import (
    CardProfile,
    CountermeasurePolicy,
    DEFAULT_PAN,
    luhn_check_digit,
    luhn_valid,
)

ARABIC_INDIC_DIGITS = "".join(chr(0x660 + d) for d in range(10))
SUPERSCRIPT_DIGITS = "\u2070\u00b9\u00b2\u00b3\u2074\u2075\u2076\u2077\u2078\u2079"


def reference_luhn_valid(number: str) -> bool:
    """Independent mod-10 check: double every second digit from the right."""
    total = 0
    for i, ch in enumerate(reversed(number)):
        d = int(ch)
        if i % 2 == 1:
            d = sum(divmod(d * 2, 10))
        total += d
    return total % 10 == 0


class TestLuhn:
    def test_known_check_digit(self):
        assert luhn_check_digit("7992739871") == 3

    def test_default_pan_is_luhn_valid(self):
        assert reference_luhn_valid(DEFAULT_PAN)
        assert luhn_valid(DEFAULT_PAN)

    def test_agrees_with_reference_on_random_numbers(self):
        import random

        r = random.Random(0x10E4)
        for _ in range(500):
            base = "".join(str(r.randrange(10)) for _ in range(r.randrange(7, 19)))
            full = base + str(luhn_check_digit(base))
            assert reference_luhn_valid(full)
            assert luhn_valid(full)

    def test_rejects_wrong_digit(self):
        base = "543000000007000"
        good = luhn_check_digit(base)
        assert not luhn_valid(base + str((good + 1) % 10))

    @pytest.mark.parametrize("digits", [ARABIC_INDIC_DIGITS, SUPERSCRIPT_DIGITS],
                             ids=["arabic-indic", "superscript"])
    def test_digits_that_are_not_ascii_are_not_valid(self, digits):
        # int() reads Arabic-Indic digits and refuses superscripts
        assert not luhn_valid("".join(digits[int(d)] for d in DEFAULT_PAN))


class TestCardProfile:
    def test_default_track2_layout(self):
        p = CardProfile()
        track2 = p.track2().hex().upper()
        assert track2 == DEFAULT_PAN + "D" + "1711" + "101" + "0010000000000" + "F"
        assert len(p.track2()) == 19

    def test_default_track1_layout(self):
        p = CardProfile()
        track1 = p.track1().decode("ascii")
        assert track1 == "B" + DEFAULT_PAN + "^ /^" + "17111010010000000000"
        assert len(p.track1()) == 41

    def test_rejects_luhn_invalid_pan(self):
        with pytest.raises(ValueError):
            CardProfile(pan="5430000000070003")

    def test_rejects_wrong_field_shapes(self):
        with pytest.raises(ValueError):
            CardProfile(expiry="171")
        with pytest.raises(ValueError):
            CardProfile(service_code="10")
        with pytest.raises(ValueError):
            CardProfile(discretionary="123")
        with pytest.raises(ValueError):
            CardProfile(cvc3_key=b"short")
        with pytest.raises(ValueError):
            CardProfile(pin="12")

    @pytest.mark.parametrize("digits", [ARABIC_INDIC_DIGITS, SUPERSCRIPT_DIGITS],
                             ids=["arabic-indic", "superscript"])
    @pytest.mark.parametrize("name, message", [
        ("pan", "pan must be 16 decimal digits"),
        ("expiry", "expiry must be 4 decimal digits"),
        ("service_code", "service_code must be 3 decimal digits"),
        ("discretionary", "discretionary must be 13 decimal digits"),
        ("pin", "pin must be 4-8 decimal digits"),
    ])
    def test_rejects_digits_that_are_not_ascii(self, name, message, digits):
        # str.isdigit takes these, but track 1 and VERIFY encode only ASCII;
        # the last digit keeps its value, so the PAN stays Luhn-valid
        value = getattr(CardProfile(), name)
        with pytest.raises(ValueError, match=message):
            CardProfile(**{name: value[:-1] + digits[int(value[-1])]})

    def test_json_round_trip(self, tmp_path):
        p = CardProfile(pin="4321")
        path = tmp_path / "profile.json"
        p.save(path)
        assert CardProfile.load(path) == p

    def test_hex_fields_in_file(self, tmp_path):
        path = tmp_path / "profile.json"
        CardProfile().save(path)
        raw = json.loads(path.read_text())
        assert raw["track1_cvc3_bitmap"] == "000000000038"
        assert raw["track2_unatc_bitmap"] == "03C6"


class TestCountermeasurePolicy:
    def test_defaults_off(self):
        policy = CountermeasurePolicy()
        assert not policy.require_pin_on_card
        assert policy.internal_disabled_aids == frozenset()

    def test_json_round_trip(self, tmp_path):
        policy = CountermeasurePolicy(
            require_pin_on_card=True,
            internal_disabled_aids=frozenset(
                {bytes.fromhex("A0000000041010AA54303200FF01FFFF")}
            ),
        )
        path = tmp_path / "policy.json"
        policy.save(path)
        assert CountermeasurePolicy.load(path) == policy

    def test_rejects_bad_aid_length(self):
        with pytest.raises(ValueError):
            CountermeasurePolicy(internal_disabled_aids=frozenset({b"\x01"}))


CUSTOM_PAN = "5430111111111112"

SAVED_TEXT = [
    (
        CardProfile(),
        "{\n"
        '  "pan": "5430000000070002",\n'
        '  "expiry": "1711",\n'
        '  "service_code": "101",\n'
        '  "discretionary": "0010000000000",\n'
        '  "track1_cvc3_bitmap": "000000000038",\n'
        '  "track1_unatc_bitmap": "0000000003C6",\n'
        '  "track2_cvc3_bitmap": "0038",\n'
        '  "track2_unatc_bitmap": "03C6",\n'
        '  "track1_atc_digits": 4,\n'
        '  "track2_atc_digits": 4,\n'
        '  "cvc3_key": "404142434445464748494A4B4C4D4E4F",\n'
        '  "pin": "1234"\n'
        "}\n",
    ),
    (
        CardProfile(
            pan=CUSTOM_PAN, pin="98765", track1_atc_digits=3, cvc3_key=bytes(range(16))
        ),
        "{\n"
        '  "pan": "5430111111111112",\n'
        '  "expiry": "1711",\n'
        '  "service_code": "101",\n'
        '  "discretionary": "0010000000000",\n'
        '  "track1_cvc3_bitmap": "000000000038",\n'
        '  "track1_unatc_bitmap": "0000000003C6",\n'
        '  "track2_cvc3_bitmap": "0038",\n'
        '  "track2_unatc_bitmap": "03C6",\n'
        '  "track1_atc_digits": 3,\n'
        '  "track2_atc_digits": 4,\n'
        '  "cvc3_key": "000102030405060708090A0B0C0D0E0F",\n'
        '  "pin": "98765"\n'
        "}\n",
    ),
    (
        CountermeasurePolicy(),
        '{\n  "require_pin_on_card": false,\n  "internal_disabled_aids": []\n}\n',
    ),
    (
        CountermeasurePolicy(
            require_pin_on_card=True,
            internal_disabled_aids=frozenset(
                {
                    bytes.fromhex("A0000000041010AA54303200FF01FFFF"),
                    bytes.fromhex("A000000003535041"),
                }
            ),
        ),
        "{\n"
        '  "require_pin_on_card": true,\n'
        '  "internal_disabled_aids": [\n'
        '    "A000000003535041",\n'
        '    "A0000000041010AA54303200FF01FFFF"\n'
        "  ]\n"
        "}\n",
    ),
]


@pytest.mark.parametrize(
    "config, text",
    SAVED_TEXT,
    ids=["default-profile", "custom-profile", "default-policy", "custom-policy"],
)
def test_saved_file_text_is_pinned(tmp_path, config, text):
    path = tmp_path / "config.json"
    config.save(path)
    assert path.read_text() == text
    assert type(config).load(path) == config
