from __future__ import annotations

import io
from fractions import Fraction

import pytest

from armkit import bom
from armkit.errors import BomDataError


BATCH_TOTAL = Fraction("5310.01375")
PER_ARM = Fraction("212.40055")


def _bom_from(text: str, batch_size: int = 25) -> bom.BillOfMaterials:
    return bom.load_bom(io.StringIO(text), batch_size=batch_size)


# ---------------------------------------------------------------------------
# shipped parts list
# ---------------------------------------------------------------------------

def test_batch_total_is_exact() -> None:
    assert bom.batch_total(bom.default_bom()) == BATCH_TOTAL


def test_per_arm_cost_is_exact_and_consistent() -> None:
    b = bom.default_bom()
    per = bom.per_arm_cost(b)
    assert per == PER_ARM
    assert per * b.batch_size == bom.batch_total(b)


def test_known_line_items() -> None:
    lines = {ln.item: ln for ln in bom.default_bom().lines}
    nema17 = next(ln for name, ln in lines.items() if "Nema 17" in name)
    assert nema17.quantity == 100
    assert nema17.unit_cost == Fraction("11.20")
    assert nema17.line_total == Fraction(1120)
    cables = next(ln for name, ln in lines.items() if "Steel cable" in name)
    assert cables.unit_cost == Fraction("3.11")
    assert cables.line_total == cables.quantity * Fraction("3.11")


def test_category_subtotals_sum_to_batch_total() -> None:
    b = bom.default_bom()
    subs = bom.category_subtotals(b)
    assert set(subs) == {"Mechanical Components", "Material",
                         "Electrical Components"}
    assert sum(subs.values()) == BATCH_TOTAL


# ---------------------------------------------------------------------------
# CSV parsing and validation
# ---------------------------------------------------------------------------

def test_load_rejects_wrong_header() -> None:
    with pytest.raises(BomDataError):
        _bom_from("a,b,c,d\nx,y,1,2\n")


def test_load_accepts_optional_declared_totals() -> None:
    text = ("category,item,quantity,unit_usd,line_total_usd\n"
            "Electrical Components,Driver,2,3.50,7.00\n")
    b = _bom_from(text, batch_size=1)
    assert bom.batch_total(b) == Fraction(7)


def test_load_rejects_tampered_declared_total() -> None:
    text = ("category,item,quantity,unit_usd,line_total_usd\n"
            "Electrical Components,Driver,2,3.50,7.00\n"
            "Electrical Components,Board,2,3.00,7.00\n")
    with pytest.raises(BomDataError) as exc:
        _bom_from(text, batch_size=1)
    assert "row 3" in str(exc.value)


def test_load_rejects_unparseable_numbers() -> None:
    with pytest.raises(BomDataError) as exc:
        _bom_from("category,item,quantity,unit_usd\nMaterial,Rod,two,1.00\n")
    assert "row 2" in str(exc.value)


def test_load_rejects_sub_microdollar_precision() -> None:
    with pytest.raises(BomDataError):
        _bom_from("category,item,quantity,unit_usd\nMaterial,Rod,1,0.1234567\n")


def test_load_skips_blank_rows_and_keeps_row_numbers() -> None:
    text = ("category,item,quantity,unit_usd\n"
            "Material,Rod,1,1.00\n"
            "\n"
            "Material,Bar,1,2.00\n")
    b = _bom_from(text, batch_size=1)
    assert len(b.lines) == 2
    assert bom.batch_total(b) == Fraction(3)


def test_empty_bom_totals_zero() -> None:
    b = _bom_from("category,item,quantity,unit_usd\n", batch_size=1)
    assert bom.batch_total(b) == 0
    assert bom.per_arm_cost(b) == 0


def test_missing_file_is_bom_data_error(tmp_path) -> None:
    with pytest.raises(BomDataError):
        bom.load_bom(str(tmp_path / "absent.csv"))


def test_batch_size_must_be_positive() -> None:
    with pytest.raises(BomDataError):
        _bom_from("category,item,quantity,unit_usd\n", batch_size=0)


# ---------------------------------------------------------------------------
# filament and cable budgets
# ---------------------------------------------------------------------------

def test_filament_spool_ceiling() -> None:
    assert bom.filament_spools(1080.21, 25) == 28
    # an exact multiple must not pick up float ceiling slop
    assert bom.filament_spools(1000.0, 2) == 2
    assert bom.filament_spools(500.0, 4) == 2


def test_filament_report_flags_the_spool_shortfall() -> None:
    rep = bom.filament_report(bom.default_bom())
    assert rep.computed_spools == 28
    assert rep.listed_spools == 27
    assert rep.mismatch


def test_cable_budget_conversion_is_exact() -> None:
    budget = bom.cable_budget(bom.CABLE_LENGTHS_MM, 25)
    assert budget.total_mm == 55000
    assert budget.total_ft == Fraction(68750, 381)
    assert float(budget.total_ft) == pytest.approx(180.4461942257218, rel=1e-12)


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------

def test_format_usd_renders_exact_decimals() -> None:
    assert bom.format_usd(BATCH_TOTAL) == "5310.01375"
    assert bom.format_usd(PER_ARM) == "212.40055"
    assert bom.format_usd(Fraction(3, 4)) == "0.75"
    with pytest.raises(TypeError, match="places"):
        bom.format_usd(PER_ARM, places=2)
