"""Field validators: amount/date parsing+normalization, cross-field
consistency.

Re-expresses the reference's validator semantics
(``/root/reference/docvision/kie/validators.py``): currency-symbol strip
with US-vs-EU thousand/decimal disambiguation (``:96-130``), a multi-format
strptime cascade with 2-digit-year retry normalizing to ISO (``:262-286``),
and document-level consistency checks total ≈ subtotal + tax within
tolerance and due_date ≥ invoice_date (``:495-558``, tolerance
``config.py:172``).
"""

from __future__ import annotations

import _strptime
import re
from datetime import datetime

from ..config import CONSISTENCY_AMOUNT_TOLERANCE

_AMOUNT_CLEAN_RE = re.compile(r"[^\d.,\-]")
_DIGIT_RE = re.compile(r"\d")
_NUMBER_RE = re.compile(r"-?\d+(\.\d+)?")

_DATE_FORMATS = (
    "%Y-%m-%d", "%d/%m/%Y", "%m/%d/%Y", "%d-%m-%Y", "%m-%d-%Y",
    "%d.%m.%Y", "%Y/%m/%d", "%Y.%m.%d", "%d %b %Y", "%d %B %Y",
    "%b %d, %Y", "%B %d, %Y", "%b %d %Y", "%B %d %Y",
    "%Y%m%d", "%d-%b-%Y", "%d %b, %Y",
)
_DATE_FORMATS_2Y = tuple(f.replace("%Y", "%y") for f in _DATE_FORMATS)

#: (format, compiled regex) for every format of the cascade, in cascade
#: order; built on first use by ``_date_regexes``.
_DATE_REGEXES: tuple | None = None


def _date_regexes() -> tuple:
    """The cascade's format regexes, compiled once per process.

    ``strptime`` keeps only five compiled formats and clears them all on
    overflow, so a 34-format cascade recompiles a regex on almost every
    call. These are the regexes ``strptime`` itself builds (same
    ``TimeRE`` translation, same IGNORECASE), in the locale of the first
    call."""
    global _DATE_REGEXES
    if _DATE_REGEXES is None:
        time_re = _strptime.TimeRE()
        _DATE_REGEXES = tuple((fmt, time_re.compile(fmt))
                              for fmt in _DATE_FORMATS + _DATE_FORMATS_2Y)
    return _DATE_REGEXES


def parse_amount(value: str) -> float | None:
    """'$1,234.56' → 1234.56; '1.234,56 €' → 1234.56 (EU form)."""
    if not value:
        return None
    s = _AMOUNT_CLEAN_RE.sub("", value.strip())
    if not s or s in ("-", ".", ","):
        return None
    neg = s.startswith("-")
    s = s.lstrip("-")
    has_dot, has_comma = "." in s, "," in s
    try:
        if has_dot and has_comma:
            # the LAST separator is the decimal point
            if s.rfind(".") > s.rfind(","):
                num = s.replace(",", "")
            else:
                num = s.replace(".", "").replace(",", ".")
        elif has_comma:
            frac = s.rsplit(",", 1)[1]
            if len(frac) == 2:           # decimal comma: 1234,56
                num = s.replace(",", ".", 1) if s.count(",") == 1 else s.replace(",", "", s.count(",") - 1).replace(",", ".")
            else:                        # thousands commas: 1,234,567
                num = s.replace(",", "")
        elif has_dot:
            parts = s.split(".")
            if len(parts) > 2 or (len(parts) == 2 and len(parts[1]) == 3 and len(parts[0]) <= 3):
                # 1.234.567 or 1.234 → EU thousands
                num = s.replace(".", "")
            else:
                num = s
        else:
            num = s
        out = float(num)
        return -out if neg else out
    except ValueError:
        return None


def normalize_date(value: str) -> str | None:
    """Multi-format cascade → ISO 'YYYY-MM-DD'; 2-digit-year retry."""
    if not value:
        return None
    s = value.strip()
    for fmt, regex in _date_regexes():
        # strptime's own first check: its format regex must match the
        # whole string. Only then can it succeed (it may still reject an
        # out-of-range day such as Feb 30).
        m = regex.match(s)
        if m is None or m.end() != len(s):
            continue
        try:
            return datetime.strptime(s, fmt).strftime("%Y-%m-%d")
        except ValueError:
            continue
    return None


class FieldTyper:
    """Typing and validation of one document's field values.

    Fusion asks the same questions about a value several times (quality
    filter, strategy, data type, normalization, validators), so each
    distinct value is parsed as a date and as an amount at most once per
    instance. An instance never evicts, so scope it to one document or
    one batch of rows, never to a process."""

    def __init__(self) -> None:
        self._dates: dict[str, str | None] = {}
        self._amounts: dict[str, float | None] = {}

    def date(self, value: str) -> str | None:
        """``normalize_date(value)``, memoized."""
        try:
            return self._dates[value]
        except KeyError:
            iso = self._dates[value] = normalize_date(value)
            return iso

    def amount(self, value: str) -> float | None:
        """``parse_amount(value)``, memoized."""
        try:
            return self._amounts[value]
        except KeyError:
            amt = self._amounts[value] = parse_amount(value)
            return amt

    def looks_like_amount(self, value: str) -> bool:
        """Plausibility gate for currency-typed fields (reference
        ``kie/fuse.py:484-507``)."""
        return bool(_DIGIT_RE.search(value or "")) and self.amount(value) is not None

    def looks_like_date(self, value: str) -> bool:
        return self.date(value or "") is not None

    def infer_data_type(self, name: str, value: str) -> str:
        """Regex data-type inference (reference
        ``kie/donut_runner.py:261-364``): field name hints first, then
        value shape."""
        lname = (name or "").lower()
        if any(k in lname for k in ("date", "due", "issued")):
            return "date" if self.looks_like_date(value) else "string"
        if any(k in lname for k in ("total", "amount", "subtotal", "tax", "price", "balance")):
            return "currency" if self.looks_like_amount(value) else "string"
        if self.looks_like_date(value):
            return "date"
        if _NUMBER_RE.fullmatch((value or "").strip()):
            return "number"
        return "string"

    def normalize_value(self, data_type: str, value: str) -> str | None:
        if data_type == "currency":
            amt = self.amount(value)
            return f"{amt:.2f}" if amt is not None else None
        if data_type == "number":
            try:
                return repr(float(value.strip()))
            except ValueError:
                return None
        if data_type == "date":
            return self.date(value)
        return value

    def validate_field(self, name: str, value: str, data_type: str) -> list[dict]:
        """Per-field validator results: [{'name', 'passed', 'message'}]."""
        out = []
        if data_type == "currency":
            amt = self.amount(value)
            out.append({
                "name": "amount_parse",
                "passed": amt is not None,
                "message": "" if amt is not None else f"unparseable amount: {value!r}",
            })
        elif data_type == "date":
            iso = self.date(value)
            out.append({
                "name": "date_parse",
                "passed": iso is not None,
                "message": "" if iso is not None else f"unparseable date: {value!r}",
            })
        if not (value or "").strip():
            out.append({"name": "non_empty", "passed": False, "message": "empty value"})
        return out

    def check_document_consistency(self, fields: dict[str, str]) -> list[dict]:
        """Cross-field checks over normalized values keyed by field name."""
        out = []
        total = self.amount(fields.get("total", "") or "")
        subtotal = self.amount(fields.get("subtotal", "") or "")
        tax = self.amount(fields.get("tax", "") or "")
        if total is not None and subtotal is not None and tax is not None:
            ok = abs(total - (subtotal + tax)) <= CONSISTENCY_AMOUNT_TOLERANCE
            out.append({
                "name": "total_equals_subtotal_plus_tax",
                "passed": ok,
                "message": "" if ok else f"total {total} != subtotal {subtotal} + tax {tax}",
            })
        inv = self.date(fields.get("date", "") or fields.get("invoice_date", "") or "")
        due = self.date(fields.get("due_date", "") or "")
        if inv and due:
            ok = due >= inv
            out.append({
                "name": "due_date_after_invoice_date",
                "passed": ok,
                "message": "" if ok else f"due {due} < invoice {inv}",
            })
        return out

