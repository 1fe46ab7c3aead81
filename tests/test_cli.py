"""End-to-end runs of the limitgap command line."""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limitgap import cli
from limitgap.cli import (
    ENUM_MAX_N, MEMBER_MAX_N, PLOT_MAX_N, _emit, _family_arg, _key_value_rows, _Output,
    _rows_table, _set_family_arg, build_parser, main,
)
from limitgap.errors import LimitGapError
from limitgap.measure_core import measure_from_dict, rat_str, set_from_dict
from limitgap.process_lab import iter_outcomes, mu_closed_form


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_examples():
    """(argv, shown stdout lines) for each `$ limitgap ...` line in the README's text blocks."""
    examples = []
    for block in re.findall(r"^```text\n(.*?)^```", README.read_text(encoding="utf-8"),
                            re.M | re.S):
        for example in re.split(r"^\$ limitgap ", block, flags=re.M)[1:]:
            command, _, shown = example.partition("\n")
            examples.append((shlex.split(command), shown.rstrip("\n").splitlines()))
    return examples


README_EXAMPLES = _readme_examples()


def test_readme_tour_has_its_examples():
    assert len(README_EXAMPLES) >= 8


@pytest.mark.parametrize(
    "argv, shown", README_EXAMPLES, ids=[" ".join(argv) for argv, _ in README_EXAMPLES])
def test_readme_tour_prints_what_it_shows(capsys, argv, shown):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    # The table renderer pads the last column to its width, and the README's
    # copies lost those trailing spaces; stdout itself must not change.
    assert [line.rstrip() for line in out.splitlines()] == [line.rstrip() for line in shown]


def test_measure_show_json(capsys):
    code, out, err = run(
        capsys, "measure", "show", "--family", "mu", "--n", "3", "--format", "json"
    )
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["total"] == "1/1"
    assert data["atoms"] == [
        {"point": "1/1", "mass": "1/8"},
        {"point": "2/1", "mass": "1/4"},
        {"point": "3/1", "mass": "5/8"},
    ]


def test_measure_show_table_has_a_total_line(capsys):
    code, out, _ = run(capsys, "measure", "show", "--family", "lambda")
    assert code == 0
    assert out.splitlines()[-1] == "total: 1/1"


def test_measure_show_rejects_unknown_families(capsys):
    code, out, err = run(capsys, "measure", "show", "--family", "nu")
    assert code == 1 and out == ""
    assert err.startswith("error:")


def test_additivity_of_overlapping_point_events(capsys, tmp_path):
    fam = tmp_path / "four.json"
    fam.write_text(
        json.dumps(
            {
                "atoms": [
                    {"point": "1/1", "mass": "1/8"},
                    {"point": "2/1", "mass": "1/8"},
                    {"point": "3/1", "mass": "1/8"},
                    {"point": "4/1", "mass": "5/8"},
                ],
                "total": "1/1",
            }
        )
    )
    set_a = tmp_path / "a.json"
    set_a.write_text(json.dumps({"points": ["1/1", "2/1"]}))
    set_b = tmp_path / "b.json"
    set_b.write_text(json.dumps({"points": ["2/1", "3/1"]}))
    code, out, _ = run(
        capsys,
        "measure", "additivity",
        "--family", f"@{fam}", "--n", "1",
        "--set-a", f"@{set_a}", "--set-b", f"@{set_b}",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data == {
        "mass_a": "1/4",
        "mass_b": "1/4",
        "mass_union": "3/8",
        "mass_sum": "1/2",
        "disjoint": False,
        "eligible": False,
    }


def test_additivity_with_inline_set_specs(capsys):
    code, out, _ = run(
        capsys,
        "measure", "additivity",
        "--family", "lambda",
        "--set-a", "point=0/1", "--set-b", "point=1/1",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["mass_sum"] == "1/1" and data["disjoint"] is True


def test_enumerate_outputs_all_rows_as_csv(capsys):
    code, out, _ = run(
        capsys, "process", "enumerate", "--n", "3", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 8
    assert rows[3] == {"bits": "110", "prob": "1/8", "y": "1", "z": "2"}


# sha256 of `process enumerate` stdout, recorded when every row was built up front
ENUMERATE_DIGESTS = {
    ("1", "1/2", "csv"): "29b9f914db4cd0697eed47928fc119727065df2dfd25453f70efd5898c6af5dd",
    ("1", "1/2", "table"): "a80ba960ef9dfd2a16a9865296a341ea74d4b095122331c95edb4213cc6f1413",
    ("1", "1/2", "json"): "d906f5406efbe46221b859e4eb1db8e0bfb4abcfdc27c895b4308ca1a3b33a4d",
    ("1", "1/3", "csv"): "3bdd3632f8fdfb47800202c6796a3db1aada82f2339b3035a8cb8a8e22125324",
    ("1", "1/3", "table"): "da953e832265fabbeb7daea59cb1064f5b1826f7fe4d00e52cace53b5d1c2db4",
    ("1", "1/3", "json"): "140defcf68658263cd17e2bf6c24737dfe53b209144d99ec51a911f0935ba685",
    ("5", "1/2", "csv"): "b907063c8e05d24eb9aaa8a6ae75ca9c154bc96ba69014d9f455a6e0871a050f",
    ("5", "1/2", "table"): "343530ebade6cb829142017641cb1f55c5a07f6ab92eada4ebda701ecfd4c8da",
    ("5", "1/2", "json"): "9c955bc5332ccada5a810bd994cc12443654e3d9b57015d32064e6996342b20d",
    ("5", "1/3", "csv"): "c8135721689bb18139882770ae6a216eefb5f1fbd76bf0823eb12955c831928f",
    ("5", "1/3", "table"): "ee169497a1af172a485b99276d87053a414aa7d190a37c4b43b3e363f13dbe89",
    ("5", "1/3", "json"): "d060dfe4d564dda765c150244c42cbdb9bfd0d8bafd4c89730a59424837820f1",
    ("12", "1/2", "csv"): "799f26a0406456cca229cb688bbf47d8614e40389f226d01c187921fb98a1313",
    ("12", "1/2", "table"): "763eb6222fdfd34497e319af36e0a07e5fa66cde9d0af1aefbf2e13e47883346",
    ("12", "1/2", "json"): "5e305dff0b045814c8ffb213971cabe865a4fb1522c57d4ccbb1ec07f9938dec",
    ("12", "1/3", "csv"): "92fd11324735d760eb2898e76ae5a41ac2b376cf9e84055f7cf69eef3e71da40",
    ("12", "1/3", "table"): "a1cd0de416969c2bc101105029bb7e1b0861511e60379faf8af2fcef574d6f65",
    ("12", "1/3", "json"): "000cbeec35dc587a5fb4a05890a877e117c752de1d86ba04a088208ade4f5e81",
    ("16", "1/2", "csv"): "2cf3a4baf8407b10c6fb95c439ba341344b49340f321d66dc28874c5297a62c8",
    ("16", "1/3", "csv"): "625863e6e6687857e1a360f0a0c02e7c81a6b3a6dea465ac27d7a62711c0658f",
    ("16", "1/2", "json"): "c049fa685f25afa6b8ce6cbbcd978c313a52ee68ee1b197c0e8d1617a42dcbf8",
    ("16", "1/3", "json"): "4cfe458280f4a50321cbffe4681365b1846116f16c4a6a86b8646430d27f925b",
    # the benchmark's argv
    ("18", "1/2", "csv"): "f9931a314c74884ad57ea7fa9617d4f26b6c4686af17f2ce5bba79d2b0898892",
    ("18", "1/2", "table"): "f19bafd6230e6886f336f786d268be42823bdb5b7b815a9c8ff40e957adc4628",
    ("18", "1/2", "json"): "93c1f13b6d45022f79831ff3ca15fa7982421d2fc7df4121ba2bf6f56dfbcfd5",
}


@pytest.mark.parametrize("n, p, fmt", list(ENUMERATE_DIGESTS))
def test_enumerate_prints_the_pinned_bytes(capsys, n, p, fmt):
    code, out, err = run(capsys, "process", "enumerate", "--n", n, "--p", p, "--format", fmt)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_DIGESTS[n, p, fmt]


# sha256 of `theorem verify` stdout, recorded while TheoremReport built the payload
THEOREM_DIGESTS = {
    ("2", "table"): "7d82ea6a241ac2a6350fe5c5060b931e03f4f2a20e67fc33e1b55236655fb1a1",
    ("2", "json"): "c4951dfc30e0c23f9cc13ce22be6b77884ce2d92beaea76d769cb800c39b4f7b",
    ("2", "csv"): "60946a90438e9b06ee2d9b1b34fd66af3b50666ab9dbb8c2ee3b3403c75aacf8",
    ("12", "table"): "7e42dc930c83b8af9d9b2c6a25f0d149546708684ebe34966ea103b116eeee08",
    ("12", "json"): "55583f9105a42c80a95f7021f0e8d136d396a3b26a6d73c9e75745421c65bbc8",
    ("12", "csv"): "b6746a432a75de8e2a22a5fb0c7dbc471585f02347822bd063fbf0b238548f89",
    ("13", "table"): "281898b48803e9331b87a2b35b33b1afdfb2c35063c348d5741d3f89309e6905",
    ("13", "json"): "8db38e9db58941b212dd8af4992189751edef2244d749735a450bb1983f2bb29",
    ("13", "csv"): "3177e8d4f0794df2b7d32e2dfcdf2251be83e659a164fbff2734aa418057ac2e",
    ("20", "table"): "876905a5cd7a7c9aab8586a7522b588eb528471c2c6d9e44bff95c0152898b6b",
    ("20", "json"): "91dac468dfa17ea38e79eb5872f1e8cd403bbf040bcda7792fd14a3438b5d8fc",
    ("20", "csv"): "68cb3dfff677d12d4baf27aa590f1a9476fb03d84522557ef42a20c0c2177248",
}


@pytest.mark.parametrize("n_max, fmt", list(THEOREM_DIGESTS))
def test_theorem_verify_prints_the_pinned_bytes(capsys, n_max, fmt):
    code, out, err = run(capsys, "theorem", "verify", "--n-max", n_max, "--format", fmt)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == THEOREM_DIGESTS[n_max, fmt]


# Twelve members whose masses at 0 and 1 settle geometrically, with 1/4 kept at +inf.
SETTLING_TABLE = {"measures": [
    {"atoms": [{"point": "0", "mass": rat_str(Fraction(1, 4) - Fraction(1, 2 ** (n + 2)))},
               {"point": "1", "mass": rat_str(Fraction(1, 2) + Fraction(1, 2 ** (n + 2)))},
               {"point": "+inf", "mass": "1/4"}]}
    for n in range(1, 13)]}
# Members that alternate forever, 1/100 of mass apart.
FLAPPING_TABLE = {"measures": [
    {"atoms": [{"point": "0", "mass": "1"}]},
    {"atoms": [{"point": "0", "mass": "99/100"}, {"point": "1", "mass": "1/100"}]}] * 5}
HALF_OPEN_SET = {"intervals": [{"lo": "0", "lo_closed": False, "hi": "1", "hi_closed": True}],
                 "points": ["+inf"]}

# sha256 of each report's stdout, recorded before the report fields were written once
REPORT_DIGESTS = {
    ("converge branches --family mu --xs n-1", "table"):
        "c115b7e32f11cf6305318c5c7140da2a13d5df496783c3d261fd482e04bcac07",
    ("converge branches --family mu --xs n-1", "json"):
        "cec363756e4d5ceb77b82364c4cdac178080c70f3dbd8918e1360001faa582e8",
    ("converge branches --family mu --xs n-1", "csv"):
        "b8067d362eb9d574b7feb45e46b6a02b60c2f4c3a9dc58f8a3bb193fddf75593",
    ("converge branches --family mu --xs 1/2+1/n", "table"):
        "6e7d90c23363c32eeba482f6b637b3af871e5b7e6b48ac21d9fd71b50d8da7bf",
    ("converge branches --family mu --xs 1/2+1/n", "json"):
        "776cd2b18978a6a612f79edc4c6164575eea1b2a3246b13cd4b24f6a5f3aa60b",
    ("converge branches --family mu --xs 1/2+1/n", "csv"):
        "ee24c39af7809a853e62e2752da1bf837ee731db416e255e1750809d357b265c",
    ("converge branches --family lambda --xs n-1", "table"):
        "c4950d9f4ddd263251a7900b754566f6e404755ce7340a40bff223774d426a61",
    ("converge branches --family lambda --xs n-1", "json"):
        "217a744d9216d3c24f5041bcaba68befd9d321573ae24e466ec7501e396ee263",
    ("converge branches --family lambda --xs n-1", "csv"):
        "6932321c90d85bf7a31b9f5b63bd5a0ab2bb294707c2238fc1204141dadab904",
    ("converge branches --family lambda --xs 1/2+1/n", "table"):
        "ebb81ff2cc021052b2bd45159623ea078b341d7c74f01a7fc09abc9a759e6142",
    ("converge branches --family lambda --xs 1/2+1/n", "json"):
        "c47e13c5b119b5512a893a30e5e44402864f919774f351f7084e3d9641a36062",
    ("converge branches --family lambda --xs 1/2+1/n", "csv"):
        "de5566165930858c66eaf1d4c395f91f02a51d46cb67307adfc25734bbef69b6",
    ("converge branches --family dirac_n --xs n-1", "table"):
        "e1e8148fa10cc0583b46b46aec47156f2502b86b4bf27b3522f0c5c56e30889c",
    ("converge branches --family dirac_n --xs n-1", "json"):
        "5c2787e9e2c2d778cade2b74cfa06b43ea6015649952cc5611dd7a1b80251137",
    ("converge branches --family dirac_n --xs n-1", "csv"):
        "e6f54085210465923e76f4d801df849a1c60436eeb045a62c14fe4b3d115dc3c",
    ("converge branches --family dirac_n --xs 1/2+1/n", "table"):
        "e0a644ec66e024112762aa78987825a4f38406f4d1c950166318b9027a04616c",
    ("converge branches --family dirac_n --xs 1/2+1/n", "json"):
        "79179d83c6551cf7b0c823c873439f8ccf7c6f1ba9c66eeeea426014d1fa799c",
    ("converge branches --family dirac_n --xs 1/2+1/n", "csv"):
        "e981ee92d78bdd055915cbc0a6addf992201b6c02932111a8e516b566907abef",
    ("converge branches --family @{dir}/settling.json --xs n-1", "table"):
        "02518443ef8854c94642df511066581114768fce12732a4cddf1f41e425b8ff6",
    ("converge branches --family @{dir}/settling.json --xs n-1", "json"):
        "f1e6414b1b08ab8ab09e71486415f6722963774a58612d3f435da27acc041d77",
    ("converge branches --family @{dir}/settling.json --xs n-1", "csv"):
        "a3063f6bb1f59ac6691d34d3afcaa3890cb9f5d561604c7e49b2eb4509022e57",
    ("converge branches --family @{dir}/settling.json --xs 1/2+1/n", "table"):
        "f1602905b07795aceedbe7fb5e6c5020e434056b437f0c83bbfff84f16fbe32c",
    ("converge branches --family @{dir}/settling.json --xs 1/2+1/n", "json"):
        "bbcf38d3e59aad057ccd21e11be0daea49f0e527202fd63984a6b508e15015b6",
    ("converge branches --family @{dir}/settling.json --xs 1/2+1/n", "csv"):
        "397581e940f6a438a9e028ffacf78e9ab42806c4fdc30d311a60c857c81c7bbc",
    ("measure additivity --family mu --n 5 --set-a I=3 --set-b point=4", "table"):
        "853b5e34c6975e701c9c0b44211850b06fe799f05d4c6b9939508d9b06f0e0ee",
    ("measure additivity --family mu --n 5 --set-a I=3 --set-b point=4", "json"):
        "171e1ccc43a553720f54316645502ce4520365c167e086605f2a575a44a8ec40",
    ("measure additivity --family mu --n 5 --set-a I=3 --set-b point=4", "csv"):
        "d2dfedeebc857855314ac709a4e8cf6d1bc108165b814d323ff037e2f59e0984",
    ("measure additivity --family @{dir}/settling.json --n 3 "
     "--set-a @{dir}/half_open.json --set-b I=1/2", "table"):
        "bcd19efe640c9ae6ebcf8db3c8d09bd8d4df35563389a16fea7e83c4ca158c07",
    ("measure additivity --family @{dir}/settling.json --n 3 "
     "--set-a @{dir}/half_open.json --set-b I=1/2", "json"):
        "0ebdfacacf0171eb486accbbe4ef85a765362030ad4eaed25655999275101166",
    ("measure additivity --family @{dir}/settling.json --n 3 "
     "--set-a @{dir}/half_open.json --set-b I=1/2", "csv"):
        "8ed9bdf7d84d93d23c0c3a64d40d638c4e700e4771b507c129e3bc735009473c",
    ("converge testfn --family lambda --fn sin --horizon 16", "table"):
        "6b9bc0af1febef5e79dfaa57850717cdb4b5796911eb5ad21f63290c2f7dd62a",
    ("converge testfn --family lambda --fn sin --horizon 16", "json"):
        "a26bde584798b6a274c49809c52272ca7d1b2b45e4452ec0685c0341a7597f6a",
    ("converge testfn --family lambda --fn sin --horizon 16", "csv"):
        "518d6b26d56596d8210aca3159be211d33d0153a4b8bcd4d791145f1ebcbb156",
    ("converge testfn --family mu --fn atan --horizon 32", "table"):
        "9e1be13d239ca426d69341067daafd92a18fce2e5bea21d88c01c3127fc30721",
    ("converge testfn --family mu --fn atan --horizon 32", "json"):
        "2bb165a0da161de5ee4af82d044dddc6cce961ebea27345bddffdd99728859e3",
    ("converge testfn --family mu --fn atan --horizon 32", "csv"):
        "0833df1943183aa422a598a53b3289a180d89beed32c691fa2eb9f22de9363e8",
    ("converge testfn --family dirac_n --fn sin --horizon 16", "table"):
        "9b0e2817acc6b472ce7a9769e311a8421b83eed8dbc3f6bb471dbd7dc5c546d8",
    ("converge testfn --family dirac_n --fn sin --horizon 16", "json"):
        "3067889ebc029fbad87365abb463504ff613da9233f7a26c123c7eac871b8f7d",
    ("converge testfn --family dirac_n --fn sin --horizon 16", "csv"):
        "4eb37f7194c85b29584d4e62d48498e43d16c2f71c1d0d095b6f90e4e2fcfafc",
    ("converge testfn --family @{dir}/flapping.json --fn atan", "table"):
        "9a06eac8f7ea1eb4002e56b3e899fec4a25085d4db52b590bdc2b624061dbfb3",
    ("converge testfn --family @{dir}/flapping.json --fn atan", "json"):
        "df62c94abd42bc28a910ea524bb1a8508ac9e8cc1a4209c4b0b9961a904f623b",
    ("converge testfn --family @{dir}/flapping.json --fn atan", "csv"):
        "30ba5fbe813fd316fb8ae20f218ab01d9a359e2f529712f64b99230625b9602b",
    ("converge testfn --family @{dir}/settling.json --fn h", "table"):
        "767b416da94d0971e1a861befbf216dc874f40a91c0e3d0584faf79355bc2b6e",
    ("converge testfn --family @{dir}/settling.json --fn h", "json"):
        "bbf15fde524c4bae35043d7e05da13652708da1358e5c48d692f604b906dae75",
    ("converge testfn --family @{dir}/settling.json --fn h", "csv"):
        "31f4cd6508521c5503697fb3dd387a66e1c8705f0056e2dc0f89f73079610d91",
    ("converge tightness --family mu --epsilon 1/2", "table"):
        "bd6240fb7a2351d9ef4379a4ee5bdfc3df036979b1f5d0af4b9a647ed5bec855",
    ("converge tightness --family mu --epsilon 1/2", "json"):
        "f6b7199cabe88ed9f9ca0d9f9e0c91c6a33f5f4bbfc1e452e61a39ebbfd4b595",
    ("converge tightness --family mu --epsilon 1/2", "csv"):
        "452807d35f686afc88334aa6551daddccb2bc4e23d025e2aadaeb2bfcd425508",
    ("converge tightness --family mu --epsilon 3/4", "table"):
        "b575c02ac061e8d689b3ec5d1db14bc06419031bf0653381188bd8ca8c9c8916",
    ("converge tightness --family mu --epsilon 3/4", "json"):
        "21d4702247f02d7e7bfdc52ae26168da0068dd1e6d701d09a9e990830debf5c6",
    ("converge tightness --family mu --epsilon 3/4", "csv"):
        "c737181995c4f00246e89714ec7f8728f358fd0073191a288ae4bc4a368fb85f",
    ("converge tightness --family lambda --epsilon 1/2", "table"):
        "09821c3073f480fef61dffee723d7c0f8bc5f67feec975ad57600fc3d364b6d4",
    ("converge tightness --family lambda --epsilon 1/2", "json"):
        "01358acc23b4513dbbe2e013b404db615413f522d134ced8ab6c366e59ecc666",
    ("converge tightness --family lambda --epsilon 1/2", "csv"):
        "b1c9edaa27af987999f4edd1cbd27f7dec79772d451c9f810e829afde698ed61",
    ("converge tightness --family dirac_n --epsilon 1/3", "table"):
        "4359d8a9bd4fbcf9cc87f3cdb0f20c0934ec046c4fa2a7a03582cc2335bfe5df",
    ("converge tightness --family dirac_n --epsilon 1/3", "json"):
        "456108509026869992fbd8c1a30ffeab60eafc87f435cc3803c24024975e7236",
    ("converge tightness --family dirac_n --epsilon 1/3", "csv"):
        "943832f61fda7e26c9d28c36ccd9c513c8a32ad4b3daf7ced0f4184a1ebee801",
    ("converge tightness --family @{dir}/settling.json --epsilon 1/2", "table"):
        "102ed63154eab24574682487fb1cacc9852a1052bba7b88ff3552cbd77fb0b6a",
    ("converge tightness --family @{dir}/settling.json --epsilon 1/2", "json"):
        "65cc13b3c83e6a73f8d03a81f1142c30956e14c981544ee8937d3ccb21169f11",
    ("converge tightness --family @{dir}/settling.json --epsilon 1/2", "csv"):
        "9215708525705483e990c9039b94f533fec3c07b4fe6d8f7f576219296b791ec",
    ("converge tightness --family @{dir}/settling.json --epsilon 1/8", "table"):
        "9966a0dda35741571be51dceaf2f2488c937219e0fc6d81f38f9e1d2caa690a4",
    ("converge tightness --family @{dir}/settling.json --epsilon 1/8", "json"):
        "cfcebcbae27e2a2a7e91bb115aa610fe0b167cf2882a6ef867554b581e1885cd",
    ("converge tightness --family @{dir}/settling.json --epsilon 1/8", "csv"):
        "d73f8118564afdd938bafec0036ca44a98a55d3f14cdaf52ba1e4d182da2c8fc",
    # recorded before the identity report wrote its own dict
    ("process identities --n 6 --p 1/3", "table"):
        "21bf881468b4fa9aa86d190738aff7a65133a875aaed208c5711b80a0ff42d42",
    ("process identities --n 6 --p 1/3", "json"):
        "16b3709d5154365d36699c46cdb988fe711a2df88f98e0ebecd8f26a56a23df9",
    ("process identities --n 6 --p 1/3", "csv"):
        "b8900ed819afad04bfac19386b322eef7f756ac4e5554ba18282276b0a456f04",
}


@pytest.mark.parametrize("command, fmt", list(REPORT_DIGESTS))
def test_reports_print_the_pinned_bytes(capsys, tmp_path, command, fmt):
    for name, payload in (("settling", SETTLING_TABLE), ("flapping", FLAPPING_TABLE),
                          ("half_open", HALF_OPEN_SET)):
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    argv = [arg.format(dir=tmp_path) for arg in command.split()]
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_DIGESTS[command, fmt]


# n = 1 has an empty low half, and odd n a high half one bit longer than the low.
@pytest.mark.parametrize("p", ["1/2", "1/3", "5/7"])
@pytest.mark.parametrize("n", range(1, 14))
def test_enumerate_csv_rows_match_the_stream_row_by_row(capsys, n, p):
    code, out, err = run(capsys, "process", "enumerate", "--n", str(n), "--p", p, "--format", "csv")
    assert code == 0 and err == ""
    printed = list(csv.DictReader(io.StringIO(out)))
    rows = list(iter_outcomes(n, Fraction(p)))
    assert len(printed) == len(rows) == 2**n
    for record, row in zip(printed, rows):
        assert record == {
            "bits": "".join(map(str, row.outcome.bits)),
            "prob": rat_str(row.outcome.prob),
            "y": str(row.y),
            "z": str(row.z),
        }


def _stream_records(n, p):
    """The `process enumerate` rows of iter_outcomes(n, p), as dicts of their printed values."""
    return [{"bits": "".join(map(str, row.outcome.bits)), "prob": rat_str(row.outcome.prob),
             "y": row.y, "z": row.z} for row in iter_outcomes(n, Fraction(p))]


@pytest.mark.parametrize("p", ["1/2", "1/3", "5/7"])
@pytest.mark.parametrize("n", range(1, 14))
def test_enumerate_table_matches_a_rows_table_rendering_of_the_stream(capsys, n, p):
    code, out, err = run(capsys, "process", "enumerate", "--n", str(n), "--p", p)
    assert code == 0 and err == ""
    # Line by line: a failing diff of the whole text takes minutes at n = 13.
    assert out.splitlines() == _rows_table(_stream_records(n, p)).splitlines() and out.endswith("\n")


def _format_choices(*path):
    """The --format choices the parser defines for the subcommand at `path`."""
    parser = build_parser()
    for name in path:
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = subparsers.choices[name]
    return next(a for a in parser._actions if a.dest == "format").choices


@pytest.mark.parametrize("fmt", _format_choices("process", "enumerate"))
@pytest.mark.parametrize("p", ["1/2", "1/3", "5/7"])
@pytest.mark.parametrize("n", range(1, 14))
def test_enumerate_matches_the_generic_renderer(capsys, n, p, fmt):
    code, out, err = run(capsys, "process", "enumerate", "--n", str(n), "--p", p, "--format", fmt)
    assert code == 0 and err == ""
    rows = _stream_records(n, p)
    _emit(_Output({"n": n, "p": rat_str(Fraction(p)), "rows": rows}, rows), fmt, None)
    # Split at "\n" only, which keeps csv's "\r": the comparison stays exact.
    assert out.split("\n") == capsys.readouterr().out.split("\n")


def _dictwriter_csv(rows):
    """The csv.DictWriter rendering of `rows`."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


CSV_ORACLE_ARGVS = [
    *(("process", "enumerate", "--n", str(n), "--p", p)
      for n in range(1, 7) for p in ("1/2", "1/3", "5/7")),
    ("plotdata", "--n-max", "6"),
    ("measure", "show", "--family", "mu", "--n", "7"),
    ("measure", "show", "--family", "@{family}", "--n", "2"),
    ("compactify", "--family", "@{family}", "--n", "2"),
    ("process", "escape", "--n", "9"),
    ("theorem", "verify", "--n-max", "14"),
    ("converge", "branches", "--family", "mu", "--xs", "n-1", "--horizon", "32"),
]


@pytest.mark.parametrize("argv", CSV_ORACLE_ARGVS, ids=" ".join)
def test_csv_matches_a_dictwriter_rendering(capsys, tmp_path, argv):
    family = tmp_path / "family.json"
    family.write_text(json.dumps({"measures": [
        {"atoms": [{"point": "0", "mass": "1"}]},
        {"atoms": [{"point": "+inf", "mass": "1/3"}, {"point": "-inf", "mass": "1/6"},
                   {"point": "1/2", "mass": "1/2"}]},
    ]}))
    argv = [arg.format(family=family) for arg in argv] + ["--format", "csv"]
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    args = build_parser().parse_args(argv)
    if argv[:2] == ["process", "enumerate"]:  # its handler returns text blocks, not rows
        rows = _stream_records(args.n, args.p)
    elif argv[0] == "plotdata":  # so does this one's
        rows = _plot_records(args.n_max)
    else:
        output = args.handler(args)
        rows = output.rows if output.rows is not None else _key_value_rows(output.data)
    assert out == _dictwriter_csv(rows)


def test_enumerate_csv_streams_its_rows():
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            code = main(["process", "enumerate", "--n", "14", "--format", "csv"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    # Peak over stdout bytes: 21.8 when all 2**14 rows were held first, 4.9 streamed.
    assert peak < 10 * len(out.getvalue())


class _CountingSink:
    """A stdout stand-in that keeps only the number of characters written."""

    chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)

    def flush(self):
        pass


def _traced_run(*argv):
    """(exit code, characters printed, tracemalloc peak) of one in-process run."""
    sink = _CountingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(list(argv))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return code, sink.chars, peak


def test_enumerate_table_streams_its_rows():
    code, chars, peak = _traced_run("process", "enumerate", "--n", "14")
    assert code == 0 and chars == (2**14 + 1) * 31  # 14 + 2 + len("1/16384") + 2 + 1 + 2 + 2 + 1
    # Peak over printed characters: 12.2 when every row was held for the
    # column widths, 0.3 streamed.
    assert peak < chars


def test_enumerate_json_streams_its_rows():
    code, chars, peak = _traced_run("process", "enumerate", "--n", "14", "--format", "json")
    assert code == 0
    # Peak over printed characters: 6.1 when every row was built and encoded
    # before the first write, 0.2 streamed.
    assert peak < chars


# Past ENUM_MAX_N, and on either side of the library's enumeration cap of 24.
@pytest.mark.parametrize("n", [ENUM_MAX_N + 1, 24, 25, 30])
@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_enumerate_n_range_check(capsys, fmt, n):
    n = str(n)
    code, out, err = run(capsys, "process", "enumerate", "--n", n, "--format", fmt)
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: n must be at most {ENUM_MAX_N}, got {n}"]
    assert ENUM_MAX_N >= 18  # the benchmark enumerates n = 18


def test_prob_prints_the_value_first(capsys):
    code, out, _ = run(
        capsys, "process", "prob", "--n", "5", "--event", "X[N]==0"
    )
    assert code == 0
    assert out.splitlines()[0] == "1/2"


def test_prob_json_carries_the_canonical_event(capsys):
    code, out, _ = run(
        capsys,
        "process", "prob", "--n", "6",
        "--event", "X[N] == 0 &&  Z==N", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["event"] == "X[N]==0 && Z==N"
    assert data["value"] == "1/64"


def test_identities_hold_and_report_the_match(capsys):
    code, out, _ = run(
        capsys, "process", "identities", "--n", "8", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["all_hold"] is True and data["violations"] == []
    assert data["p_last_zero_and_z_below"] == data["p_z_below"] == "127/256"


def test_escape_profile_with_explicit_k_max(capsys):
    code, out, _ = run(
        capsys,
        "process", "escape", "--n", "10", "--k-max", "3", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["partial_sum"] == "961/1024"
    assert data["profile"][1] == {"k": 1, "point": "9", "mass": "1/4"}


def test_escape_default_covers_every_atom(capsys):
    code, out, _ = run(capsys, "process", "escape", "--n", "6", "--format", "json")
    assert code == 0
    assert json.loads(out)["partial_sum"] == "1/1"


def test_limit_order_b_headline_and_eligibility(capsys):
    code, out, _ = run(
        capsys,
        "converge", "limit", "--family", "mu", "--sets", "I(n-1)",
        "--order", "b", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["value"] == "1/2"
    assert data["order"] == "b"
    assert data["eligible"] is False
    assert "measure_tag" not in data or data["measure_tag"] is None


def test_limit_order_a_is_tagged_with_its_measure_and_set(capsys):
    code, out, _ = run(
        capsys,
        "converge", "limit", "--family", "mu", "--sets", "I(n-1)",
        "--order", "a", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["value"] == "0/1"
    assert data["measure_tag"] == "{+inf: 1/1}"
    assert data["set_tag"] == "(-inf, +inf)"


@pytest.mark.parametrize(
    "sets, order, expected",
    [
        ("I=1/2", "a", "1/2"),
        ("I=-1", "b", "0/1"),
        ("point=1", "a", "1/2"),
        ("point=+inf", "b", "0/1"),
        ("@settles.json", "a", "1/1"),
        ("@settles.json", "b", "1/1"),
        ("@flaps.json", "a", None),  # a flapping list has no limiting set
        ("@flaps.json", "b", "1/2"),
    ],
)
def test_limit_accepts_every_sets_form(capsys, tmp_path, monkeypatch, sets, order, expected):
    ray = {"intervals": [{"lo": "-inf", "lo_closed": False, "hi": "1/1", "hi_closed": True}]}
    zero, one = {"points": ["0/1"]}, {"points": ["1/1"]}
    (tmp_path / "settles.json").write_text(json.dumps({"sets": [zero] + [ray] * 8}))
    (tmp_path / "flaps.json").write_text(json.dumps({"sets": [zero, one] * 4}))
    monkeypatch.chdir(tmp_path)
    code, out, err = run(
        capsys,
        "converge", "limit", "--family", "lambda", "--sets", sets,
        "--order", order, "--format", "json",
    )
    if expected is None:
        assert code == 1 and out == "" and "neither constant nor settled" in err
    else:
        assert code == 0 and json.loads(out)["value"] == expected


def test_key_value_reports_render_as_key_value_csv(capsys):
    argv = ("measure", "additivity", "--family", "lambda",
            "--set-a", "point=0", "--set-b", "I=1")
    _, out, _ = run(capsys, *argv, "--format", "json")
    data = json.loads(out)
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["key"] for row in rows] == list(data)
    assert rows[0] == {"key": "mass_a", "value": "1/2"}
    assert rows[-1] == {"key": "eligible", "value": "False"}


def test_limit_table_output_leads_with_the_number(capsys):
    code, out, _ = run(
        capsys,
        "converge", "limit", "--family", "lambda", "--sets", "I(n)",
        "--order", "b",
    )
    assert code == 0
    assert out.splitlines()[0] == "1/1"


def test_weaklimit_of_the_argmax_family(capsys):
    code, out, _ = run(
        capsys, "converge", "weaklimit", "--family", "mu", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["atoms"] == [{"point": "+inf", "mass": "1/1"}]


def test_tightness_verdicts(capsys):
    code, out, _ = run(
        capsys,
        "converge", "tightness", "--family", "lambda",
        "--epsilon", "1/4", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["tight"] is True and data["interval"] == "[0/1, 1/1]"

    code, out, _ = run(
        capsys,
        "converge", "tightness", "--family", "mu",
        "--epsilon", "1/2", "--format", "json",
    )
    assert json.loads(out)["tight"] is False


def test_testfn_reports_divergence_with_witnesses(capsys):
    code, out, _ = run(
        capsys,
        "converge", "testfn", "--family", "dirac_n", "--fn", "sin",
        "--horizon", "100", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "divergent"
    assert len(data["witness_pair"]) == 2


def test_branches_json_shape(capsys):
    code, out, _ = run(
        capsys,
        "converge", "branches", "--family", "mu", "--xs", "n-1",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["branch"] == "b"
    assert data["holds"] is True
    assert data["order_a"]["value"] == "0/1"
    assert data["order_b"]["value"] == "1/2"
    assert data["tightness"]["tight"] is False


def _family_file(tmp_path, *members):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"measures": [
        {"atoms": [{"point": x, "mass": m} for x, m in atoms.items()]} for atoms in members
    ]}))
    return f"@{path}"


def test_tightness_of_a_table_with_no_finite_atom_is_inconclusive(capsys, tmp_path):
    family = _family_file(tmp_path, {"-inf": "1/2", "+inf": "1/2"}, {"+inf": "1"})
    code, out, _ = run(capsys, "converge", "tightness", "--family", family,
                       "--epsilon", "1/2", "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["tight"] == "inconclusive" and data["interval"] is None
    assert data["witness"].startswith("no member has any finite atom")


def test_branches_predict_nothing_when_tightness_is_inconclusive(capsys, tmp_path):
    family = _family_file(tmp_path, *[{"0": "1/2", "+inf": "1/2"}] * 6)
    code, out, _ = run(capsys, "converge", "branches", "--family", family,
                       "--xs", "n-1", "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["branch"] == "b"
    assert data["tightness"]["tight"] == "inconclusive"
    assert data["predicted"] == "tightness is inconclusive, so no relation is predicted"
    assert data["holds"] is None and data["infinity_mass"] == "1/2"


def test_compactify_marks_exact_image_points(capsys):
    code, out, _ = run(
        capsys, "compactify", "--family", "lambda", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["atoms"][0]["point"] == {"value": "0.5", "exact": True}
    assert data["atoms"][1]["point"]["exact"] is False
    assert data["total"] == "1/1"


def test_theorem_verify_table_walks_to_the_gap(capsys):
    code, out, _ = run(capsys, "theorem", "verify")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == [
        "n",
        "p_last_zero",
        "p_last_zero_and_z_below",
        "p_last_zero_and_z_at",
        "ray_mass",
    ]
    assert "order (a): 0/1" in out
    assert "order (b): 1/2" in out


def test_theorem_verify_json_rows(capsys):
    code, out, _ = run(capsys, "theorem", "verify", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["rows"]) == 11  # n = 2..12
    assert data["rows"][0] == {
        "n": 2,
        "p_last_zero": "1/2",
        "p_last_zero_and_z_below": "1/4",
        "p_last_zero_and_z_at": "1/4",
        "ray_mass": "1/4",
    }
    assert data["order_a"]["value"] == "0/1"
    assert data["order_b"]["value"] == "1/2"


def test_theorem_verify_range_check(capsys):
    code, _, err = run(capsys, "theorem", "verify", "--n-max", "21")
    assert code == 1 and "n_max" in err


def test_plotdata_csv(capsys):
    code, out, _ = run(capsys, "plotdata", "--n-max", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows == [
        {"n": "1", "j": "1/1", "mass": "1/1"},
        {"n": "2", "j": "1/1", "mass": "1/4"},
        {"n": "2", "j": "2/1", "mass": "3/4"},
    ]


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("n_max", ["-3", "0", str(PLOT_MAX_N + 1)])
def test_plotdata_range_check(capsys, n_max, fmt):
    code, out, err = run(capsys, "plotdata", "--n-max", n_max, "--format", fmt)
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: n_max must lie in [1, {PLOT_MAX_N}], got {n_max}"]


MEMBER_COMMANDS = {
    "measure-show": ("measure", "show", "--family", "mu"),
    "measure-additivity": (
        "measure", "additivity", "--family", "mu", "--set-a", "I=3", "--set-b", "I=5"),
    "compactify": ("compactify", "--family", "mu"),
    "process-escape": ("process", "escape", "--k-max", "0"),
}


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("n", [str(MEMBER_MAX_N + 1), "20000"])
@pytest.mark.parametrize("command", sorted(MEMBER_COMMANDS))
def test_member_n_range_check(capsys, command, n, fmt):
    code, out, err = run(capsys, *MEMBER_COMMANDS[command], "--n", n, "--format", fmt)
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: n must be at most {MEMBER_MAX_N}, got {n}"]


def test_member_n_accepts_the_bound(capsys):
    code, out, _ = run(
        capsys, "measure", "show", "--family", "dirac_n", "--n", str(MEMBER_MAX_N),
        "--format", "csv")
    assert code == 0 and out.splitlines() == ["point,mass", f"{MEMBER_MAX_N}/1,1/1"]
    # mu_n's denominators reach 2**n; CPython prints ints of up to 4,300 digits
    assert len(str(2**MEMBER_MAX_N)) <= 4300


def test_plotdata_accepts_n_max_one(capsys):
    code, out, _ = run(capsys, "plotdata", "--n-max", "1", "--format", "csv")
    assert code == 0 and out.splitlines() == ["n,j,mass", "1,1/1,1/1"]
    assert PLOT_MAX_N >= 120  # the benchmark plots the mass parade up to 120


def _plot_records(n_max):
    """The `plotdata` rows of members 1 to n_max, each built and normalised by mu_closed_form."""
    return [{"n": n, "j": str(point), "mass": rat_str(mass)}
            for n in range(1, n_max + 1) for point, mass in mu_closed_form(n).atoms]


# The n and j columns widen at n_max 10 and 100.
@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("n_max", [1, 2, 7, 10, 40, 100])
def test_plotdata_prints_what_the_members_print(capsys, n_max, fmt):
    code, out, err = run(capsys, "plotdata", "--n-max", str(n_max), "--format", fmt)
    assert code == 0 and err == ""
    records = _plot_records(n_max)
    _emit(_Output({"n_max": n_max, "segments": records}, records), fmt, None)
    assert out == capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_plotdata_writes_its_out_file_as_it_prints(capsys, tmp_path, fmt):
    target = tmp_path / "plot.txt"
    code, out, err = run(capsys, "plotdata", "--n-max", "12", "--format", fmt, "--out", str(target))
    assert code == 0 and out == err == ""
    _, printed, _ = run(capsys, "plotdata", "--n-max", "12", "--format", fmt)
    assert target.read_bytes().decode() == printed  # bytes: csv ends its lines with "\r\n"


@pytest.mark.parametrize("argv", [
    ("plotdata", "--n-max", "200"),
    ("process", "enumerate", "--n", "16"),
], ids=" ".join)
def test_a_reader_that_stops_early_ends_the_command_quietly(argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    child = subprocess.Popen([sys.executable, "-m", "limitgap.cli", *argv],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             env={**os.environ, "PYTHONPATH": src})
    assert child.stdout.readline().split()[0] in (b"n", b"bits")
    child.stdout.close()  # as `| head -1` does; the rest of the output fills more than the pipe
    _, err = child.communicate(timeout=60)
    assert (child.returncode, err) == (0, b"")


def test_plotdata_streams_its_rows():
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            code = main(["plotdata", "--n-max", "150", "--format", "csv"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    # Peak over stdout bytes: 15.7 when every row was held first, 2.0 streamed.
    assert peak < 5 * len(out.getvalue())


def test_family_file_round_trip(capsys, tmp_path):
    path = tmp_path / "family.json"
    path.write_text(
        json.dumps(
            {
                "measures": [
                    {"atoms": [{"point": "0/1", "mass": "1/1"}], "total": "1/1"},
                    {"atoms": [{"point": "5/1", "mass": "1/1"}], "total": "1/1"},
                ]
            }
        )
    )
    code, out, _ = run(
        capsys,
        "measure", "show", "--family", f"@{path}", "--n", "2", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["atoms"] == [{"point": "5/1", "mass": "1/1"}]


def test_out_flag_writes_the_file_instead_of_stdout(capsys, tmp_path):
    target = tmp_path / "result.json"
    code, out, _ = run(
        capsys,
        "measure", "show", "--family", "mu", "--n", "2",
        "--format", "json", "--out", str(target),
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["total"] == "1/1"


def test_repeated_runs_are_byte_identical(capsys):
    argv = ("theorem", "verify", "--format", "json")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_domain_errors_exit_with_code_one(capsys):
    code, out, err = run(capsys, "process", "prob", "--n", "30", "--event", "Y==1")
    assert code == 1 and out == ""
    assert "error:" in err and "enumeration cap 24" in err


def test_event_syntax_errors_carry_positions(capsys):
    code, _, err = run(capsys, "process", "prob", "--n", "4", "--event", "Y==")
    assert code == 1
    assert "line 1" in err and "column 4" in err


def test_bad_sequence_spec_exits_with_code_one(capsys):
    code, _, err = run(
        capsys, "converge", "branches", "--family", "mu", "--xs", "n^2"
    )
    assert code == 1 and "sequence spec" in err


def test_escape_k_range_error(capsys):
    code, _, err = run(capsys, "process", "escape", "--n", "5", "--k-max", "5")
    assert code == 1 and "error:" in err


def test_usage_errors_exit_with_code_two(capsys):
    for argv in (
        ["converge", "limit", "--family", "mu", "--sets", "I(n)", "--order", "c"],
        ["process", "enumerate", "--n", "3", "--workers", "2"],
        ["process", "prob", "--n", "3", "--p", "1/0", "--event", "Y==1"],
        ["converge", "tightness", "--family", "mu", "--epsilon", "1/0"],
    ):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
    capsys.readouterr()


SHOW_FILE = ("measure", "show", "--family", "@{path}")
ADDITIVITY_FILE = ("measure", "additivity", "--family", "lambda",
                   "--set-a", "@{path}", "--set-b", "I=-1")
UNIT_AND_INF = {  # [0, 1] with +inf, of lambda-mass 1
    "intervals": [{"lo": "0", "lo_closed": True, "hi": "1", "hi_closed": True}],
    "points": ["+inf"],
}
HALVES = [{"point": "0", "mass": "1/2"}, {"point": "1", "mass": "1/2"}]
SETS_FILE = ("converge", "limit", "--family", "mu", "--sets", "@{path}", "--order", "a")


@pytest.mark.parametrize(
    "payload, argv, named",
    [
        (None, SHOW_FILE, "{path}"),  # the file does not exist
        ("{not json", SHOW_FILE, "{path}"),
        (json.dumps({"atoms": [{"mass": "1/2"}]}), SHOW_FILE, "{path}"),
        (json.dumps({"atoms": [{"point": "1/1", "mass": "half"}]}), SHOW_FILE, "{path}"),
        (
            None,
            ("measure", "additivity", "--family", "lambda",
             "--set-a", "I=abc", "--set-b", "I=0"),
            "'abc'",
        ),
        (
            None,
            ("converge", "limit", "--family", "mu", "--sets", "point=x", "--order", "a"),
            "'x'",
        ),
        (
            None,
            ("converge", "limit", "--family", "mu", "--sets", "I=1/0", "--order", "b"),
            "'1/0'",
        ),
        (None, ("measure", "show", "--family", "mu", "--out", "{path}/x.txt"), "{path}/x.txt"),
        ("[" * 100000 + "]" * 100000, SHOW_FILE, "{path}"),
        (json.dumps({"sets": [UNIT_AND_INF]}), ADDITIVITY_FILE, "'sets'"),
        (json.dumps({"interval": UNIT_AND_INF["intervals"]}), ADDITIVITY_FILE, "'interval'"),
        (json.dumps({"points": "12"}), ADDITIVITY_FILE, "'points'"),
        (json.dumps({"intervals": [{**UNIT_AND_INF["intervals"][0], "lo_closed": "false"}]}),
         ADDITIVITY_FILE, "'lo_closed'"),
        (json.dumps({"intervals": [{**UNIT_AND_INF["intervals"][0], "open": True}]}),
         ADDITIVITY_FILE, "'open'"),
        (json.dumps({"atoms": HALVES, "total": "3/4"}), SHOW_FILE, "'total'"),
        (json.dumps({"atoms": HALVES, "totl": "1/1"}), SHOW_FILE, "'totl'"),
        (json.dumps({"atoms": [{**HALVES[0], "weight": "1"}, HALVES[1]]}), SHOW_FILE, "'weight'"),
        (json.dumps({"measures": [{"atoms": HALVES}], "total": "1/2", "junk": 1}), SHOW_FILE,
         "a 'measures' wrapper takes only measures (list), got 'total'"),
        (json.dumps({"sets": [UNIT_AND_INF], "junk": 1}), SETS_FILE,
         "a 'sets' wrapper takes only sets (list), got 'junk'"),
        (json.dumps({"measures": {"atoms": HALVES}}), SHOW_FILE,
         "a 'measures' wrapper takes only measures (list), got 'measures'"),
        (json.dumps({"measures": []}), SHOW_FILE, "explicit family needs at least one measure"),
        (json.dumps({"sets": []}), SETS_FILE, "explicit set list needs at least one set"),
        (json.dumps({"measures": [{"atoms": HALVES}]}),
         ("converge", "weaklimit", "--family", "@{path}"), "explicit family is too short to scan"),
        (json.dumps({"measures": [{"atoms": HALVES}]}),
         ("converge", "testfn", "--family", "@{path}", "--fn", "atan"),
         "explicit family is too short to scan"),
        (
            None,
            ("measure", "additivity", "--family", "mu", "--set-a", "I(n)", "--set-b", "I=0"),
            "unknown set 'I(n)'; use I=<x>, point=<c>, or @file.json",
        ),
    ],
    ids=[
        "missing-file",
        "not-json",
        "atom-without-point",
        "mass-not-rational",
        "set-a-not-rational",
        "point-not-rational",
        "ray-zero-denominator",
        "out-dir-missing",
        "too-deeply-nested",
        "set-file-in-sets-form",
        "set-key-misspelt",
        "set-points-not-a-list",
        "closed-flag-a-string",
        "interval-key-unknown",
        "total-not-the-sum",
        "measure-key-unknown",
        "atom-key-unknown",
        "family-wrapper-key-unknown",
        "sets-wrapper-key-unknown",
        "family-wrapper-holds-a-record",
        "family-wrapper-empty",
        "sets-wrapper-empty",
        "family-too-short-to-scan",
        "testfn-family-too-short-to-scan",
        "set-a-a-family",
    ],
)
def test_bad_json_input_exits_with_one_error_line(capsys, tmp_path, payload, argv, named):
    path = tmp_path / "family.json"
    if payload is not None:
        path.write_text(payload)
    code, out, err = run(capsys, *(a.format(path=path) for a in argv))
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert named.format(path=path) in err and "Traceback" not in err


@pytest.mark.parametrize("form", ["wrapper", "bare-list", "one-record"])
def test_a_file_holds_its_wrapper_a_bare_list_or_one_record(tmp_path, form):
    for key, read, record, parse in (
        ("measures", _family_arg, {"atoms": HALVES}, measure_from_dict),
        ("sets", _set_family_arg, UNIT_AND_INF, set_from_dict),
    ):
        payload = {"wrapper": {key: [record]}, "bare-list": [record], "one-record": record}[form]
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(payload))
        assert read(f"@{path}").table == (parse(record),)


SEVENS = "1/" + "7" * 1000  # its sixth power has 5,000 digits


@pytest.mark.parametrize(
    "argv",
    [
        f"process prob --n 6 --p {SEVENS} --event Y==1",
        f"process identities --n 6 --p {SEVENS}",
        "process prob --n 6 --p 1e10000000 --event Y==1",
        "converge branches --family mu --xs 1e5000",
        "converge limit --order a --family lambda --sets I=1e5000",
        "converge tightness --family mu --epsilon 1e-5000",
        "measure additivity --family mu --set-a I=1e5000 --set-b I=1",
    ],
    ids=["prob", "identities", "p-exponent", "branches", "limit", "tightness", "additivity"],
)
def test_a_rational_past_the_digit_limit_exits_with_one_error_line(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv.split())
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"{sys.get_int_max_str_digits()}-digit limit" in err


CONVERGE_OPTIONS = {
    "tightness": ["--epsilon", "1/2"],
    "limit": ["--sets", "I(n-1)", "--order", "b"],
    "weaklimit": [],
    "testfn": ["--fn", "atan"],
    "branches": ["--xs", "n-1"],
}


@pytest.mark.parametrize("command", sorted(CONVERGE_OPTIONS))
def test_a_horizon_below_two_exits_with_one_error_line(capsys, command):
    code, out, err = run(capsys, "converge", command, "--family", "mu",
                         *CONVERGE_OPTIONS[command], "--horizon", "1")
    assert code == 1 and out == ""
    assert err == "error: horizon must be at least 2, got 1\n"


def _run_catching_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


_BRANCHES = ["converge", "branches", "--family", "lambda"]
_TIGHTNESS = ["converge", "tightness", "--family", "mu"]


# argparse takes a unique prefix (--x, --eps); a negative p, epsilon or n is a domain error
@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize("head, flag, option, value, code", [
    *[(_BRANCHES, flag, "--xs", xs, 0)
      for flag in ("--xs", "--x") for xs in ("-1/2+1/n", "-3-1/n", "-1", "-.5+1/n")],
    (["process", "prob", "--n", "4", "--event", "Y==1"], "--p", "--p", "-1/2", 1),
    (_TIGHTNESS, "--epsilon", "--epsilon", "-1/2", 1),
    (_TIGHTNESS, "--eps", "--epsilon", "-1/2", 1),
    (["process", "enumerate"], "--n", "--n", "-1", 1),
])
def test_a_negative_value_reads_the_same_with_a_space_or_an_equals_sign(
        head, flag, option, value, code, fmt):
    spaced = _run_catching_exit([*head, flag, value, "--format", fmt])
    joined = _run_catching_exit([*head, f"{option}={value}", "--format", fmt])
    assert spaced == joined and spaced[0] == code
    assert spaced[2].startswith("error: ") == bool(code)


def test_help_takes_no_value_so_a_negative_number_after_it_is_not_joined():
    code, out, err = _run_catching_exit(["process", "enumerate", "--help", "-1"])
    assert code == 0 and out.startswith("usage: limitgap process enumerate") and err == ""
    code, out, err = _run_catching_exit(["process", "enumerate", "--help=-1"])
    assert code == 2 and "ignored explicit argument '-1'" in err


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# Per command prefix, at COLUMNS=80: the sha256 of its --help stdout, the exit
# code and stderr sha256 of the bare prefix, and the stderr sha256 of the
# prefix with an unknown flag (which exits 2).
PARSER_DIGESTS = {
    "": (
        "f3969d07f8184a5a121bfc501f24a7a8cc3c43392990450e3cb35578b99434c1",
        2, "b1ae9b671981bc6f3bdb57a0a19544b30185408f5cf242ede35ed1fad7f1bad0",
        "b1ae9b671981bc6f3bdb57a0a19544b30185408f5cf242ede35ed1fad7f1bad0"),
    "measure": (
        "8c8660dcb2de24e16df692e01ce0db171841e00ee44d85a3793ebc6ceb05bef5",
        2, "130b1001b95f932aee02e41b7869be4a1804e0a7022d00f08fe8f1c39a3af758",
        "130b1001b95f932aee02e41b7869be4a1804e0a7022d00f08fe8f1c39a3af758"),
    "measure show": (
        "083eb37132f01ebd964e332bc112d407d65f1676d7361cbaf70db70a235f8bdf",
        2, "5ef562e556f93159047f396550ba1f75a13f38878a63fa24e97bcd6e4312a17b",
        "5ef562e556f93159047f396550ba1f75a13f38878a63fa24e97bcd6e4312a17b"),
    "measure additivity": (
        "fa225f1a2c45aed866d3cadc94bb7b90cb46496e552abe57d9c1702c7fa67f88",
        2, "36379b6ee670c82aa93708e1db949cf3203f9c378eccb396e87ba38860485b52",
        "36379b6ee670c82aa93708e1db949cf3203f9c378eccb396e87ba38860485b52"),
    "process": (
        "475d25ed4e41f36f3c341a5356b60e8094b39e39fc20d8e477975d1f49ca7518",
        2, "e35981ae1c86bd28f1ea88063684ad790d1e122ef0a4add65635e8e94f35b6aa",
        "e35981ae1c86bd28f1ea88063684ad790d1e122ef0a4add65635e8e94f35b6aa"),
    "process enumerate": (
        "ec6d6a0e5d8e12e399808d8787e44c2728259289b9068eaf2cb2e5d2c48bb82b",
        2, "52c0a5e8eb28fc498d13cb13f1bc647f9a1c3bf56e4bf5fef9b871574e84b9d0",
        "52c0a5e8eb28fc498d13cb13f1bc647f9a1c3bf56e4bf5fef9b871574e84b9d0"),
    "process prob": (
        "a92b39ceb4373e246a11eb50f5955af4b3a7ba56802435a18c88c02a3307c8be",
        2, "ab2299aca0e431114307c75df4e6eb8107cee2c96a65e48e4750b5b88e16f109",
        "ab2299aca0e431114307c75df4e6eb8107cee2c96a65e48e4750b5b88e16f109"),
    "process identities": (
        "d73ff97038c372afb2f988ae743e81cdc52dc8b76c027b0a8607381f31d7d664",
        2, "69bce055e92d8dc5fe83bcf3627db63f29ab8d9d7f25f3b0900a1e979f008e07",
        "69bce055e92d8dc5fe83bcf3627db63f29ab8d9d7f25f3b0900a1e979f008e07"),
    "process escape": (
        "f4424c73e346a7e014f081eca5c46e494154885bcfcbd2172ab4e7bde910db4e",
        2, "5faeb0e3bcd3eced03b4b187fc75ba57edd1484f9650d20b64a8cdd2b6b7f34a",
        "5faeb0e3bcd3eced03b4b187fc75ba57edd1484f9650d20b64a8cdd2b6b7f34a"),
    "converge": (
        "57cf2c36576de8be0028f2464d279c4f0bfbe06d8aa612c31c0b4b7af1b499e0",
        2, "fd5df0fd7176b9b3451b3de18a254cb48ddbdcb4c1fd698a71a901775e3585ad",
        "fd5df0fd7176b9b3451b3de18a254cb48ddbdcb4c1fd698a71a901775e3585ad"),
    "converge tightness": (
        "50efab829793db828a21cc96364a4514885698f84fe00d01c05f1dee06f8ba50",
        2, "64b7252b32935c3942cff2e9d24e5c61e757b6e9cc4735fef9d12e9b6904b819",
        "64b7252b32935c3942cff2e9d24e5c61e757b6e9cc4735fef9d12e9b6904b819"),
    "converge limit": (
        "8164444c37148d2fbf5e09308eeb796b2c70be107eeec3c4cff7dcdbbd5951ac",
        2, "f069cfcd20757de5c851c5a39711496d09f51b02df81276e9b815a36d4c6c6c5",
        "f069cfcd20757de5c851c5a39711496d09f51b02df81276e9b815a36d4c6c6c5"),
    "converge weaklimit": (
        "2dc02d13a1f1523080278d9f2423f4ae64d9615aae3415f53d5505bcf1187940",
        2, "0572c39049b183ebba2c0782f4a86eed09e174697545efcc52186962366c88a6",
        "0572c39049b183ebba2c0782f4a86eed09e174697545efcc52186962366c88a6"),
    "converge testfn": (
        "dc42a0ebf1bed9f13356740025adb13205de50e94a7473a3a943917a3a922e35",
        2, "a9ee2e25fb78706b85b92797950b04ef07bb749b2db3ebd1e337cdafd641ec6f",
        "a9ee2e25fb78706b85b92797950b04ef07bb749b2db3ebd1e337cdafd641ec6f"),
    "converge branches": (
        "477f689366fa10a16c55d3852ff689d3ff549c37b9f0e2149128c3450dde24a5",
        2, "541d90d912094a82f5ea076065ca1d46ed3bd77e7b26922a8b6d9dea53dc125d",
        "541d90d912094a82f5ea076065ca1d46ed3bd77e7b26922a8b6d9dea53dc125d"),
    "compactify": (
        "0674555bf8028f2687032026b3e39bd90c7bc5fef5a30b972ad68d6bf99b5ad5",
        2, "0500584f88a657f2fcb0b48b8f07fb3254936a9d21f2dfd33a1d522196e38c3b",
        "0500584f88a657f2fcb0b48b8f07fb3254936a9d21f2dfd33a1d522196e38c3b"),
    "theorem": (
        "6a7bcf49eb29d214a1eb8ef0104232dc8a4b691853dd766baf31b1118fd1711b",
        2, "5c1751c108bdbf4e7bd12f0f2780d443da7399e0b788aecdae4d7a712c891913",
        "5c1751c108bdbf4e7bd12f0f2780d443da7399e0b788aecdae4d7a712c891913"),
    "theorem verify": (
        "0771db367916898520bec79c5c2ff263cb321f60c981223588f439c990a47300",
        0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e82abe0730b94d8fbbbcba91f6ce0c91759099f64ed282b1eeef3d5d0674faa3"),
    "plotdata": (
        "6f3d9a76875162ee279b6af0045b8ff0f5aace1676a089a87ee4d400f5d1c7a6",
        0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e82abe0730b94d8fbbbcba91f6ce0c91759099f64ed282b1eeef3d5d0674faa3"),
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the digests pin CPython 3.11's argparse layout")
@pytest.mark.parametrize("prefix", sorted(PARSER_DIGESTS), ids=lambda p: p or "limitgap")
def test_parser_help_and_usage_errors_are_pinned(monkeypatch, prefix):
    monkeypatch.setenv("COLUMNS", "80")
    help_digest, bare_code, bare_digest, unknown_digest = PARSER_DIGESTS[prefix]
    argv = prefix.split()
    code, out, err = _run_catching_exit([*argv, "--help"])
    assert (code, _sha256(out), err) == (0, help_digest, "")
    code, _, err = _run_catching_exit(argv)
    assert (code, _sha256(err)) == (bare_code, bare_digest)
    code, out, err = _run_catching_exit([*argv, "--bogus"])
    assert (code, out, _sha256(err)) == (2, "", unknown_digest)


def test_missing_subcommand_exits_with_code_two(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["measure"])
    assert exc_info.value.code == 2
    capsys.readouterr()


FUZZ_RATIONALS = ["1/2", "1/3", "0", "-1", "2", "abc", "1/0", "", "+inf", "nan", SEVENS,
                  "1e-5000", "1e10000000"]
FUZZ_FAMILIES = ["mu", "lambda", "dirac_n", "nu", "", "@{dir}/family.json",
                 "@{dir}/missing.json", "@{dir}/bad.json", "@{dir}/deep.json"]
FUZZ_SET = ["I=1/2", "I=abc", "I=1/0", "I=1e5000", "point=1", "point=+inf", "point=x",
            "@{dir}/set.json", "@{dir}/sets.json", "@{dir}/missing.json", "@{dir}/deep.json", "x"]
FUZZ_SETS = ["I(n-1)", "I(n)", "I(1/n)", "I(n^2)", "I()", "@{dir}/family.json", *FUZZ_SET]
FUZZ_XS = ["n-1", "n", "1/n", "1/2", "n^2", "", "x", "1e5000", "n+1e5000", "-1/2+1/n",
           "-3-1/n"]
FUZZ_EVENTS = ["X[N]==0", "X[N]==0 && Z<N", "Y==1 || Z==N", "X[0]==1", "X[99]==1",
               "Y==", "((", "", "X[²]==1", "Y==" + "9" * 5000, "(" * 300 + "Y==1" + ")" * 300,
               "Y==1 && " * 2999 + "Y==1"]


def _pick(draw, options):
    return draw(st.sampled_from(options))


def _size(draw):
    return str(draw(st.integers(-3, 9)))


def _member_n(draw):
    return str(draw(st.integers(-3, 9) | st.just(MEMBER_MAX_N + 1)))


def _enum_n(draw):
    return str(draw(st.integers(-3, 9) | st.just(ENUM_MAX_N + 1)))


def _p(draw):
    return ["--p", _pick(draw, FUZZ_RATIONALS)] if draw(st.booleans()) else []


# Each subcommand's options as cli_argv draws them, given hypothesis's draw.
FUZZ_COMMANDS = {
    "measure show": lambda draw: [
        "--family", _pick(draw, FUZZ_FAMILIES), "--n", _member_n(draw)],
    "measure additivity": lambda draw: [
        "--family", _pick(draw, FUZZ_FAMILIES), "--n", _member_n(draw),
        "--set-a", _pick(draw, FUZZ_SET), "--set-b", _pick(draw, FUZZ_SET)],
    "process enumerate": lambda draw: ["--n", _enum_n(draw), *_p(draw)],
    "process prob": lambda draw: [
        "--n", _size(draw), "--event", _pick(draw, FUZZ_EVENTS), *_p(draw)],
    "process identities": lambda draw: ["--n", _size(draw), *_p(draw)],
    "process escape": lambda draw: ["--n", _member_n(draw), "--k-max", _size(draw)],
    "converge tightness": lambda draw: [
        "--family", _pick(draw, FUZZ_FAMILIES), "--epsilon", _pick(draw, FUZZ_RATIONALS),
        "--horizon", _size(draw)],
    "converge limit": lambda draw: [
        "--family", _pick(draw, FUZZ_FAMILIES), "--sets", _pick(draw, FUZZ_SETS),
        "--order", _pick(draw, ["a", "b", "c"]), "--horizon", _size(draw)],
    "converge weaklimit": lambda draw: [
        "--family", _pick(draw, FUZZ_FAMILIES), "--horizon", _size(draw)],
    "converge testfn": lambda draw: [
        "--family", _pick(draw, FUZZ_FAMILIES), "--fn", _pick(draw, ["sin", "atan", "h", "cos"]),
        "--horizon", _size(draw)],
    "converge branches": lambda draw: [
        "--family", _pick(draw, FUZZ_FAMILIES), "--xs", _pick(draw, FUZZ_XS),
        "--horizon", _size(draw)],
    "compactify": lambda draw: [
        "--family", _pick(draw, FUZZ_FAMILIES), "--n", _member_n(draw)],
    "theorem verify": lambda draw: ["--n-max", _size(draw)],
    "plotdata": lambda draw: ["--n-max", _size(draw)],
}


@st.composite
def cli_argv(draw):
    """Any subcommand with small sizes, bad rationals and specs, and bad files.

    The four commands that print one member also try an n just past
    MEMBER_MAX_N, and `process enumerate` one just past ENUM_MAX_N.
    """
    name = _pick(draw, sorted(FUZZ_COMMANDS))
    argv = [*name.split(), *FUZZ_COMMANDS[name](draw),
            "--format", _pick(draw, ["table", "json", "csv"])]
    if draw(st.booleans()):
        argv += ["--out", _pick(draw, ["{dir}/out.txt", "{dir}/missing/out.txt"])]
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    atom = {"atoms": [{"point": "0/1", "mass": "1/1"}], "total": "1/1"}
    (path / "family.json").write_text(json.dumps({"measures": [atom] * 3}))
    (path / "set.json").write_text(json.dumps({"points": ["0/1"]}))
    (path / "sets.json").write_text(json.dumps({"sets": [{"points": ["0/1"]}] * 3}))
    (path / "bad.json").write_text("{not json")
    (path / "deep.json").write_text("[" * 100000 + "]" * 100000)
    return path


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(argv=cli_argv())
def test_fuzzed_argv_keeps_the_exit_code_contract(fuzz_dir, argv):
    code, out, err = _run_catching_exit([a.format(dir=fuzz_dir) for a in argv])
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 1:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1


# Each subcommand's options, and the values each is tried with: the first is valid.
SIZES = ["4", "-1", "x"]
EQUIVALENCE_OPTIONS = {
    "measure show": {"--family": FUZZ_FAMILIES, "--n": SIZES},
    "measure additivity": {"--family": FUZZ_FAMILIES, "--set-a": FUZZ_SET, "--set-b": FUZZ_SET},
    "process enumerate": {"--n": SIZES, "--p": FUZZ_RATIONALS},
    "process prob": {"--n": SIZES, "--event": FUZZ_EVENTS, "--p": FUZZ_RATIONALS},
    "process identities": {"--n": SIZES, "--p": FUZZ_RATIONALS},
    "process escape": {"--n": SIZES, "--k-max": SIZES},
    "converge tightness": {"--family": FUZZ_FAMILIES, "--epsilon": FUZZ_RATIONALS,
                           "--horizon": SIZES},
    "converge limit": {"--family": FUZZ_FAMILIES, "--sets": FUZZ_SETS,
                       "--order": ["a", "b", "c"], "--horizon": SIZES},
    "converge weaklimit": {"--family": FUZZ_FAMILIES, "--horizon": SIZES},
    "converge testfn": {"--family": FUZZ_FAMILIES, "--fn": ["atan", "sin", "h", "cos"],
                        "--horizon": SIZES},
    "converge branches": {"--family": FUZZ_FAMILIES, "--xs": FUZZ_XS, "--horizon": SIZES},
    "compactify": {"--family": FUZZ_FAMILIES, "--n": SIZES},
    "theorem verify": {"--n-max": SIZES},
    "plotdata": {"--n-max": SIZES},
}


def test_every_declared_subcommand_has_a_help_digest_equivalence_options_and_a_fuzz_entry():
    paths = [" ".join(words) for words, *_ in cli._LEAVES]
    assert len(set(paths)) == len(paths)
    assert set(paths) == set(EQUIVALENCE_OPTIONS) == set(FUZZ_COMMANDS)
    for path in paths:
        assert path in PARSER_DIGESTS and path.rpartition(" ")[0] in PARSER_DIGESTS, path


def _equivalence_argvs(command):
    """The command with every option at its first value but one, which takes each value.

    Also each format, an unknown flag, the last option left out, an unknown
    flag before the subcommand's name, and the option argparse reads as two.
    """
    options = EQUIVALENCE_OPTIONS[command]
    words = command.split()
    base = {flag: values[0] for flag, values in options.items()}
    argvs = []
    for varied, values in [*options.items(), ("--format", ["table", "json", "csv", "xml"])]:
        for value in values:
            chosen = {**base, varied: value}
            argvs.append([*words, *(arg for item in chosen.items() for arg in item)])
    first = argvs[0]
    argvs += [[*first, "--bogus"], first[:-2], [words[0], "--bogus", *first[1:]]]
    if command == "converge branches":
        argvs += [[*first, "--xs", "-1/2+1/n"], [*first, "--x", "-3-1/n"]]
    return argvs


@pytest.mark.parametrize("command", [*EQUIVALENCE_OPTIONS, "prefixes"])
def test_a_parser_built_for_its_argv_acts_as_the_full_parser(monkeypatch, fuzz_dir, command):
    # Only the subcommand that argv names gets its options, so every other
    # one's help, usage and errors must not change, nor any parse.
    monkeypatch.setenv("COLUMNS", "80")
    if command == "prefixes":
        argvs = [[*prefix.split(), *tail] for prefix in PARSER_DIGESTS
                 for tail in (["--help"], ["--bogus"], [])]
    else:
        argvs = [[a.format(dir=fuzz_dir) for a in argv] for argv in _equivalence_argvs(command)]
    narrowed = [_run_catching_exit(argv) for argv in argvs]
    monkeypatch.setattr(cli, "build_parser", lambda argv=None: build_parser())
    for argv, seen in zip(argvs, narrowed):
        assert seen == _run_catching_exit(argv), argv
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                full = build_parser().parse_args(argv)
        except (SystemExit, LimitGapError):  # a usage error, or a rational too long to read
            continue
        assert build_parser(argv).parse_args(argv) == full, argv
