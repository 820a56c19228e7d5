"""Bill-of-materials cost rollup with exact decimal arithmetic.

Monetary values are held as integer micro-dollars and quantities as exact
fractions parsed from their decimal strings, so line totals, the batch
total, and the per-arm division are free of binary-float drift. Unit costs
in the shipped data run to four decimal places (e.g. 0.0788) and some line
totals to five (e.g. 3.11875); micro-dollar integers cover both exactly.

The canonical file format is CSV with header ``category,item,quantity,
unit_usd``. An optional fifth column ``line_total_usd`` may carry a declared
total; when present it is validated against quantity x unit on load, and a
mismatch is an error naming the offending row.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from importlib import resources
from typing import Dict, Optional, Sequence, Tuple, Union

from .errors import BomDataError

MICRO = 10 ** 6  # micro-dollars per dollar
HEADER = ("category", "item", "quantity", "unit_usd")
OPTIONAL_TOTAL_COLUMN = "line_total_usd"
MM_PER_FOOT = Fraction(3048, 10)  # 304.8 mm, exact

#: Printed-part filament per arm (grams) and retail spool size (grams).
FILAMENT_GRAMS_PER_ARM = 1080.21
SPOOL_GRAMS = 1000.0

#: Per-arm cable cut lengths (mm): shoulder yaw, shoulder pitch, wrist pitch.
CABLE_LENGTHS_MM = (1100.0, 700.0, 400.0)


def _to_fraction(text: str, where: str) -> Fraction:
    try:
        return Fraction(Decimal(text.strip()))
    except (InvalidOperation, ValueError) as exc:
        raise BomDataError(f"{where}: not a decimal number: {text!r}") from exc


def _to_micro(text: str, where: str) -> int:
    value = _to_fraction(text, where)
    micro = value * MICRO
    if micro.denominator != 1:
        raise BomDataError(
            f"{where}: more than six decimal places: {text!r}")
    return int(micro)


@dataclass(frozen=True)
class BomLine:
    """One priced row: quantity x unit cost, both exact."""

    category: str
    item: str
    quantity: Fraction
    unit_cost_micro: int  # micro-dollars

    @property
    def unit_cost(self) -> Fraction:
        """Unit cost in dollars."""
        return Fraction(self.unit_cost_micro, MICRO)

    @property
    def line_total(self) -> Fraction:
        """quantity x unit cost, in dollars, exact."""
        return self.quantity * self.unit_cost


@dataclass(frozen=True)
class BillOfMaterials:
    lines: Tuple[BomLine, ...]
    batch_size: int

    def __post_init__(self):
        if self.batch_size < 1:
            raise BomDataError("batch_size must be >= 1")


def load_bom(source: Union[str, os.PathLike, io.TextIOBase],
             batch_size: int = 25) -> BillOfMaterials:
    """Parse and validate a BOM CSV.

    Args:
        source: path or open text stream.
        batch_size: arms the quantities cover (the shipped file prices 25).

    Raises:
        BomDataError: malformed header/row, non-decimal numbers, negative
            values, or a declared ``line_total_usd`` differing from
            quantity x unit by more than $0.0001 (the error names the row).
    """
    if isinstance(source, (str, os.PathLike)):
        try:
            with open(source, "r", encoding="utf-8", newline="") as fh:
                return load_bom(fh, batch_size=batch_size)
        except OSError as exc:
            raise BomDataError(f"cannot read BOM file {source}: {exc}") \
                from exc

    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise BomDataError("empty BOM file") from None
    header = [h.strip() for h in header]
    has_declared = False
    if tuple(header) == HEADER:
        pass
    elif tuple(header) == HEADER + (OPTIONAL_TOTAL_COLUMN,):
        has_declared = True
    else:
        raise BomDataError(
            f"bad header {header!r}; expected {','.join(HEADER)}"
            f"[,{OPTIONAL_TOTAL_COLUMN}]")

    lines = []
    tolerance = Fraction(1, 10_000)  # $0.0001
    for rownum, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        expected = 5 if has_declared else 4
        if len(row) != expected:
            raise BomDataError(f"row {rownum}: expected {expected} columns, "
                               f"got {len(row)}")
        category, item = row[0].strip(), row[1].strip()
        if not item:
            raise BomDataError(f"row {rownum}: empty item name")
        where = f"row {rownum} ({item or 'unnamed'})"
        quantity = _to_fraction(row[2], where)
        unit = _to_micro(row[3], where)
        if quantity < 0 or unit < 0:
            raise BomDataError(f"{where}: negative quantity or unit cost")
        line = BomLine(category=category, item=item, quantity=quantity,
                       unit_cost_micro=unit)
        if has_declared:
            declared = _to_fraction(row[4], where)
            if abs(line.line_total - declared) > tolerance:
                raise BomDataError(
                    f"{where}: declared line total {format_usd(declared)} "
                    f"!= quantity x unit = {format_usd(line.line_total)}")
        lines.append(line)
    return BillOfMaterials(lines=tuple(lines), batch_size=batch_size)


def default_bom() -> BillOfMaterials:
    """The shipped batch-of-25 parts list."""
    ref = resources.files("armkit.data").joinpath("default_bom.csv")
    with ref.open("r", encoding="utf-8", newline="") as fh:
        return load_bom(fh, batch_size=25)


def batch_total(bom: BillOfMaterials) -> Fraction:
    """Sum of all line totals, in dollars, exact."""
    return sum((line.line_total for line in bom.lines), Fraction(0))


def per_arm_cost(bom: BillOfMaterials) -> Fraction:
    """Batch total divided by batch size, exact."""
    return batch_total(bom) / bom.batch_size


def category_subtotals(bom: BillOfMaterials) -> Dict[str, Fraction]:
    """Dollar subtotal per category, in first-appearance order."""
    out: Dict[str, Fraction] = {}
    for line in bom.lines:
        out[line.category] = out.get(line.category, Fraction(0)) \
            + line.line_total
    return out


def filament_spools(grams_per_arm: float, batch: int) -> int:
    """Whole spools of :data:`SPOOL_GRAMS` needed:
    ceil(grams_per_arm x batch / SPOOL_GRAMS).

    Inputs are re-read through their decimal string forms so e.g.
    1080.21 x 25 lands exactly on 27005.25 before the ceiling.
    """
    if grams_per_arm <= 0 or batch <= 0:
        raise ValueError("filament quantities must be positive")
    need = Fraction(Decimal(str(grams_per_arm))) * batch
    return int(math.ceil(need / Fraction(Decimal(str(SPOOL_GRAMS)))))


@dataclass(frozen=True)
class FilamentReport:
    """Computed spool demand vs. what the parts list actually orders."""

    batch: int
    computed_spools: int
    listed_spools: Optional[Fraction]  # None if no spool line in the BOM

    @property
    def mismatch(self) -> bool:
        return (self.listed_spools is not None
                and self.listed_spools != self.computed_spools)


def filament_report(bom: BillOfMaterials) -> FilamentReport:
    """Compare the ceiling-rule spool count of :data:`FILAMENT_GRAMS_PER_ARM`
    per arm against the BOM's spool line.

    The shipped data orders 27 spools while 1080.21 g x 25 arms needs
    27005.25 g, i.e. 28 whole 1 kg spools; the report surfaces that
    difference instead of silently adopting either number.
    """
    computed = filament_spools(FILAMENT_GRAMS_PER_ARM, bom.batch_size)
    listed = None
    for line in bom.lines:
        if "spool" in line.item.lower():
            listed = line.quantity
            break
    return FilamentReport(batch=bom.batch_size, computed_spools=computed,
                          listed_spools=listed)


@dataclass(frozen=True)
class CableBudget:
    total_mm: Fraction
    total_ft: Fraction


def cable_budget(per_arm_lengths_mm: Sequence[float],
                 batch: int) -> CableBudget:
    """Total cable length for the batch, in mm and feet (304.8 mm/ft)."""
    if any(length <= 0 for length in per_arm_lengths_mm):
        raise ValueError("cable lengths must be positive")
    total = sum((Fraction(Decimal(str(length)))
                 for length in per_arm_lengths_mm), Fraction(0)) * batch
    return CableBudget(total_mm=total, total_ft=total / MM_PER_FOOT)


def format_usd(amount: Fraction) -> str:
    """Exact decimal rendering of a dollar fraction.

    All amounts built from decimal inputs have power-of-ten denominators, so
    the division below terminates.
    """
    return format(Decimal(amount.numerator) / Decimal(amount.denominator),
                  "f")
