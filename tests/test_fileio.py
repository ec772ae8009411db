"""File formats: graph files, vectors, sample CSVs, covariance JSON, groupings."""

import numpy as np
import pytest

from pathpca import (
    Dag,
    ParseError,
    build_group_graph,
    build_layer_graph,
    load_covariance_json,
    load_data_csv,
    load_graph,
    load_grouping,
    load_vector,
    write_covariance_json,
    write_data_csv,
    write_graph,
    write_vector,
)

from helpers import random_dag


class TestGraphFiles:
    def test_round_trip_layer_graph(self, tmp_path):
        d = build_layer_graph(18, 4, 4)
        f = tmp_path / "g.txt"
        write_graph(d, f)
        assert load_graph(f) == d

    def test_round_trip_group_graph(self, tmp_path):
        d = build_group_graph([[0, 1], [2, 3, 4]])
        f = tmp_path / "g.txt"
        write_graph(d, f)
        assert load_graph(f) == d

    def test_round_trip_random_dags(self, tmp_path):
        rng = np.random.default_rng(127)
        for i in range(8):
            d = random_dag(rng, max_interior=12)
            f = tmp_path / f"g{i}.txt"
            write_graph(d, f)
            assert load_graph(f) == d

    def test_comments_and_blank_lines(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("# a chain\n\np=3 source=0 terminal=2   # header\n"
                     "edge 0 1\nedge 1 2  # middle\nbind 1 0\n")
        d = load_graph(f)
        assert d.vertex_count == 3
        assert d.dim == 1
        assert d.binding.tolist() == [-1, 0, -1]

    def test_missing_header(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("edge 0 1\n")
        with pytest.raises(ParseError) as exc:
            load_graph(f)
        assert "header" in str(exc.value)

    def test_error_carries_line_number(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("p=3 source=0 terminal=2\nedge 0 1\nedge 1 two\n")
        with pytest.raises(ParseError) as exc:
            load_graph(f)
        assert exc.value.line_no == 3
        assert "g.txt:3" in str(exc.value)

    def test_edge_out_of_range(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("p=3 source=0 terminal=2\nedge 0 7\n")
        with pytest.raises(ParseError) as exc:
            load_graph(f)
        assert exc.value.line_no == 2

    def test_duplicate_bind_rejected(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("p=3 source=0 terminal=2\nedge 0 1\nedge 1 2\n"
                     "bind 1 0\nbind 1 1\n")
        with pytest.raises(ParseError) as exc:
            load_graph(f)
        assert exc.value.line_no == 5

    def test_unknown_directive(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("p=3 source=0 terminal=2\nnode 1\n")
        with pytest.raises(ParseError):
            load_graph(f)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("# nothing\n")
        with pytest.raises(ParseError):
            load_graph(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_graph(tmp_path / "absent.txt")

    def test_unbound_graph_file_loads_with_dim_zero(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("p=3 source=0 terminal=2\nedge 0 1\nedge 1 2\n")
        d = load_graph(f)
        assert d.dim == 0
        assert np.all(d.binding == -1)


class TestVectorFiles:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(131)
        x = rng.standard_normal(40)
        f = tmp_path / "v.txt"
        write_vector(x, f)
        assert np.array_equal(load_vector(f), x)

    def test_comment_header(self, tmp_path):
        f = tmp_path / "v.txt"
        write_vector([1.5, -2.0], f, comment="path: 0 1 2\nsecond line")
        text = f.read_text()
        assert text.startswith("# path: 0 1 2\n# second line\n")
        assert np.array_equal(load_vector(f), [1.5, -2.0])

    def test_rejects_garbage(self, tmp_path):
        f = tmp_path / "v.txt"
        f.write_text("1.5\nzebra\n")
        with pytest.raises(ParseError) as exc:
            load_vector(f)
        assert exc.value.line_no == 2

    def test_empty_rejected(self, tmp_path):
        f = tmp_path / "v.txt"
        f.write_text("\n# only a comment\n")
        with pytest.raises(ParseError):
            load_vector(f)


class TestDataCsv:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(137)
        y = rng.standard_normal((5, 9))
        f = tmp_path / "y.csv"
        write_data_csv(y, f)
        assert np.array_equal(load_data_csv(f), y)

    def test_header_round_trip(self, tmp_path):
        y = np.array([[1.0, 2.0], [3.0, 4.0]])
        f = tmp_path / "y.csv"
        write_data_csv(y, f, header=True)
        assert f.read_text().splitlines()[0] == "obs0,obs1"
        assert np.array_equal(load_data_csv(f, header=True), y)

    def test_ragged_rows_rejected(self, tmp_path):
        f = tmp_path / "y.csv"
        f.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ParseError) as exc:
            load_data_csv(f)
        assert exc.value.line_no == 2

    def test_non_numeric_cell(self, tmp_path):
        f = tmp_path / "y.csv"
        f.write_text("1.0,x\n")
        with pytest.raises(ParseError):
            load_data_csv(f)

    @pytest.mark.parametrize("text,line_no", [
        ("1.0,2.0\n\n3.0,4.0\n5.0\n", 4),  # ragged after a blank line
        ("1.0,2.0\n3.0,2.0,1.0\n", 2),  # too many columns
        ("1.0,2.0\n3.0,x\n", 2),
        ("1.0,2.0\n\n3.0,\n", 3),  # empty cell
        ("1.0,2.0\n4.0,0x10\n", 2),
    ])
    def test_bad_row_line_numbers(self, tmp_path, text, line_no):
        f = tmp_path / "y.csv"
        f.write_text(text)
        with pytest.raises(ParseError) as exc:
            load_data_csv(f)
        assert exc.value.line_no == line_no
        f.write_text("obs0,obs1\n" + text)
        with pytest.raises(ParseError) as exc:
            load_data_csv(f, header=True)
        assert exc.value.line_no == line_no + 1

    def test_line_numbers_follow_universal_newlines(self, tmp_path):
        # \r\n, \r and \n all end a line, as in a text-mode readlines
        f = tmp_path / "y.csv"
        f.write_bytes(b"1,2\r\n\r3,4\r5\n")
        with pytest.raises(ParseError) as err:
            load_data_csv(f)
        assert err.value.line_no == 4
        f.write_bytes(b"1,2\r\n\r3,4\r")
        assert load_data_csv(f).tolist() == [[1.0, 2.0], [3.0, 4.0]]
        g = tmp_path / "g.txt"
        g.write_bytes(b"p=3 source=0 terminal=2\r\n# note\redge 0 1\r\nbogus\n")
        with pytest.raises(ParseError) as err:
            load_graph(g)
        assert err.value.line_no == 4

    def test_cells_parse_as_float_does(self, tmp_path):
        cells = [" 1.5", "1_0 ", "nan", "-inf", "1e400", "1e-400", "+2", "\t3"]
        f = tmp_path / "y.csv"
        f.write_text(",".join(cells) + "\n" + ",".join(cells[::-1]) + "\n")
        want = np.array([[float(c) for c in cells], [float(c) for c in cells[::-1]]])
        got = load_data_csv(f)
        assert got.tobytes() == want.tobytes()

    def test_empty_rejected(self, tmp_path):
        f = tmp_path / "y.csv"
        f.write_text("")
        with pytest.raises(ParseError):
            load_data_csv(f)


class TestCovarianceJson:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(139)
        a = rng.standard_normal((4, 4))
        s = a @ a.T
        f = tmp_path / "s.json"
        write_covariance_json(s, f)
        assert np.array_equal(load_covariance_json(f), s)

    def test_p_field_checked(self, tmp_path):
        f = tmp_path / "s.json"
        f.write_text('{"p": 3, "sigma": [[1.0, 0.0], [0.0, 1.0]]}')
        with pytest.raises(ParseError):
            load_covariance_json(f)

    def test_rejects_non_square(self, tmp_path):
        f = tmp_path / "s.json"
        f.write_text('{"sigma": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}')
        with pytest.raises(ParseError):
            load_covariance_json(f)

    @pytest.mark.parametrize("doc", [
        '{"p": "two", "sigma": [[1.0, 0.0], [0.0, 1.0]]}',
        '{"p": 2.7, "sigma": [[1.0, 0.0], [0.0, 1.0]]}',
        '{"sigma": [[1.0, "x"], [0.0, 1.0]]}',
    ])
    def test_malformed_fields_name_the_file(self, tmp_path, doc):
        f = tmp_path / "s.json"
        f.write_text(doc)
        with pytest.raises(ParseError, match=r"s\.json"):
            load_covariance_json(f)

    @pytest.mark.parametrize("sigma", [
        '[[1.0, null], [null, 1.0]]',  # null is not a number
        '[["1.5", 0.0], [0.0, 1.0]]',  # nor is a numeric string
        '[[1.0, 0.0], [0.0, 1.0, 2.0]]',
        '[[1.0, {}], [0.0, 1.0]]',
        '[[true, false], [false, true]]',  # numpy reads a bool matrix
        '[[1.0, true], [true, 2]]',  # numpy folds the bools into floats
    ])
    def test_cells_must_be_numbers(self, tmp_path, sigma):
        f = tmp_path / "s.json"
        f.write_text('{"sigma": %s}' % sigma)
        with pytest.raises(ParseError, match=r"s\.json.*matrix of numbers"):
            load_covariance_json(f)

    def test_letters_without_boolean_cells_load(self, tmp_path):
        # a "t" or an "f" elsewhere in the text only makes the loader look
        f = tmp_path / "s.json"
        f.write_text('{"note": "fit", "sigma": [[2.0, 0.5], [0.5, Infinity]]}')
        s = load_covariance_json(f)
        assert s[:, 0].tolist() == [2.0, 0.5] and s[1, 1] == np.inf

    def test_integer_cells_read_as_floats(self, tmp_path):
        f = tmp_path / "s.json"
        f.write_text('{"sigma": [[2, 0], [0, 1]]}')
        s = load_covariance_json(f)
        assert s.dtype == float
        assert np.array_equal(s, np.diag([2.0, 1.0]))

    def test_rejects_invalid_json(self, tmp_path):
        f = tmp_path / "s.json"
        f.write_text('{"sigma": [[1.0,')
        with pytest.raises(ParseError):
            load_covariance_json(f)


class TestGroupingFiles:
    def test_groups_in_first_appearance_order(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("0 energy\n3 tech\n1 energy\n2 retail\n# comment\n")
        groups = load_grouping(f)
        assert groups == [("energy", [0, 1]), ("tech", [3]), ("retail", [2])]

    def test_multi_word_labels(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("0 consumer staples\n1 consumer staples\n2 energy\n")
        groups = load_grouping(f)
        assert groups[0] == ("consumer staples", [0, 1])

    def test_duplicate_variable_rejected(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("0 a\n0 b\n")
        with pytest.raises(ParseError) as exc:
            load_grouping(f)
        assert exc.value.line_no == 2

    def test_empty_rejected(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("# nothing\n")
        with pytest.raises(ParseError):
            load_grouping(f)

    def test_feeds_group_graph(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("0 a\n1 a\n2 b\n3 b\n4 b\n")
        groups = load_grouping(f)
        d = build_group_graph([vars for _, vars in groups])
        assert d.dim == 5
