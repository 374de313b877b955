import math
import re

import pytest

from hanlink.encoding import (
    EncodingKind,
    FrequencyTable,
    IDENTITY_TABLE,
    InputError,
    ambiguity_count,
    asset_lines,
    han_indicator,
    load_encoding_table,
    load_surnames,
    log_rel_frequency,
    transform,
)


def test_load_table_basic(tmp_path):
    path = tmp_path / "py.tsv"
    path.write_text("# comment\n伍\twu3\n考\tkao3\n", encoding="utf-8")
    table = load_encoding_table(path, EncodingKind.PY)
    assert table.code("伍") == "wu3"
    assert table.code("考") == "kao3"
    assert table.code("李") == "李"  # no entry: the logogram itself
    assert table.duplicates == 0


def test_load_table_duplicate_keeps_first(tmp_path):
    path = tmp_path / "py.tsv"
    path.write_text("伍\twu3\n伍\twu9\n", encoding="utf-8")
    table = load_encoding_table(path, EncodingKind.PY)
    assert table.code("伍") == "wu3"
    assert table.duplicates == 1


def test_load_table_empty_is_error(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(InputError):
        load_encoding_table(path, EncodingKind.PY)


def test_asset_files_checked_on_load(tmp_path):
    """A malformed frequency line or an empty surname list is an input
    error naming the file, not a failure later in featurization."""
    freq = tmp_path / "freq.tsv"
    freq.write_text("1:1\t张\t-0.4\n1:1\t李\n", encoding="utf-8")
    with pytest.raises(InputError, match=f"{freq}, line 2: expected range"):
        FrequencyTable.load(freq)
    surnames = tmp_path / "surnames.tsv"
    surnames.write_text("# none\n", encoding="utf-8")
    with pytest.raises(InputError, match="no surnames"):
        load_surnames(surnames)


@pytest.mark.parametrize("line", ["李", "王五\twang2", "赵\t", "赵\tzhao4\tx", "\tzhao4"])
def test_load_table_rejects_malformed_line(tmp_path, line):
    """A line that is not one logogram, a tab and a code is an input error
    naming the file and line, not an entry silently dropped."""
    path = tmp_path / "py.tsv"
    path.write_text(f"# comment\n张\tzhang1\n\n{line}\n", encoding="utf-8")
    with pytest.raises(InputError, match=re.escape(f"{path}, line 4: expected logogram<TAB>code")):
        load_encoding_table(path, EncodingKind.PY)


@pytest.mark.parametrize("value", ["nan", "-inf", "inf"])
def test_frequency_rejects_non_finite_value(tmp_path, value):
    """A log frequency that is not finite would make the floor NaN or
    infinite: an input error naming the file and line."""
    path = tmp_path / "freq.tsv"
    path.write_text(f"1:1\t张\t-0.4\n1:1\t李\t{value}\n", encoding="utf-8")
    with pytest.raises(InputError, match=re.escape(f"{path}, line 2: expected range")):
        FrequencyTable.load(path)


def test_frequency_rejects_repeated_key_and_empty_file(tmp_path):
    """A range and substring listed twice would keep one of the two values
    silently, and a file without entries would make every frequency feature
    the constant floor: each an input error naming the file, the repeat
    also its line."""
    path = tmp_path / "freq.tsv"
    path.write_text("1:1\t张\t-1.0\n1:1\t李\t-1.5\n1:1\t张\t-2.0\n", encoding="utf-8")
    with pytest.raises(InputError, match=re.escape(f"{path}, line 3: '张' at 1:1 is listed twice")):
        FrequencyTable.load(path)
    path.write_text("# nothing\n\n", encoding="utf-8")
    with pytest.raises(InputError, match=re.escape(f"{path}: no frequency entries")):
        FrequencyTable.load(path)


def test_asset_lines_skip_blank_and_comment_lines(tmp_path):
    """Every asset loader reads through one line reader: blank lines and
    lines whose first non-blank character is '#' are skipped, the rest keep
    their text and line number."""
    path = tmp_path / "asset.txt"
    path.write_text("# head\n张三\n\n  \n  # indented\r\n李四 \n", encoding="utf-8")
    assert list(asset_lines(path)) == [(2, "张三"), (6, "李四 ")]


def test_load_table_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_encoding_table(tmp_path / "nope.tsv", EncodingKind.PY)


def test_transform_pinyin_example(bundle):
    encoded = transform("伍考", bundle.tables[EncodingKind.PY])
    assert encoded.codes == ("wu3", "kao3")
    assert encoded.joined == "wu3_kao3"
    assert encoded.fallbacks == 0


def test_transform_fourcorner_example(bundle):
    assert transform("伍考", bundle.tables[EncodingKind.FC]).joined == "21212_44027"


def test_transform_identity_and_fallback(bundle):
    ident = transform("伍考", IDENTITY_TABLE)
    assert ident.joined == "伍考"
    assert ident.codes == ("伍", "考")
    # A is absent from the pinyin table: identity fallback, counted
    encoded = transform("A考", bundle.tables[EncodingKind.PY])
    assert encoded.codes == ("A", "kao3")
    assert encoded.fallbacks == 1


def test_transform_empty_is_error(bundle):
    with pytest.raises(ValueError):
        transform("   ", bundle.tables[EncodingKind.PY])


def test_transform_length_conservation(bundle):
    for name in ("伍考", "张可成", "阿日么扎博"):
        for kind, table in bundle.tables.items():
            assert len(transform(name, table).codes) == len(name)


def test_rds_structure_marks_follow_radicals(tmp_path):
    rds = tmp_path / "rds.tsv"
    rds.write_text("好\t女 子 ⿰\n明\t日 月 ⿰\n",
                   encoding="utf-8")
    table = load_encoding_table(rds, EncodingKind.RDS)
    joined = transform("好明", table).joined
    assert joined == "女 子 日 月 ⿰ ⿰"


def test_han_indicator(bundle):
    assert han_indicator("伍考", bundle.surnames) is True
    assert han_indicator("阿日么扎博", bundle.surnames) is False
    assert han_indicator("", bundle.surnames) is False
    assert han_indicator("  伍考  ", bundle.surnames) is True
    # 5 logograms starting with a real surname is still not Han-convention
    assert han_indicator("张一二三四", bundle.surnames) is False


def test_han_indicator_double_surname(bundle):
    assert "欧阳" in bundle.surnames
    assert han_indicator("欧阳明", bundle.surnames) is True


def test_han_indicator_empty_surnames():
    with pytest.raises(ValueError):
        han_indicator("伍考", frozenset())


def test_ambiguity_count():
    assert ambiguity_count("俄者(拉者)") == 2
    assert ambiguity_count("?者") == 1
    assert ambiguity_count("张三") == 0
    assert ambiguity_count("张三又名李四") == 1
    assert ambiguity_count("？（）") == 3


def test_log_rel_frequency():
    freq = FrequencyTable(values={("1:2", "伍考"): -9.0}, floor=-15.0)
    assert log_rel_frequency("伍考", "1:2", freq) == -9.0
    assert log_rel_frequency("张三", "1:2", freq) == -15.0
    with pytest.raises(ValueError):
        log_rel_frequency("伍考", "1:N", freq)


def test_frequency_save_load_roundtrip(tmp_path):
    path = tmp_path / "freq.tsv"
    path.write_text("# comment\n1:1\t张\t-0.4054651081\n1:1\t李\t-1.0986122887\n\n"
                    "2:N\t三\t-0.4054651081\n", encoding="utf-8")
    loaded = FrequencyTable.load(path)
    assert loaded.values == {("1:1", "张"): -0.4054651081, ("1:1", "李"): -1.0986122887,
                             ("2:N", "三"): -0.4054651081}
    assert loaded.floor == -1.0986122887 + math.log(0.5)
