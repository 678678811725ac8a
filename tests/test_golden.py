"""Pinned SHA-256 of the output of the regression commands: structured
unless the command names a format.

Structured output is the behavioural contract: a refactor or a speed-up must
leave these bytes unchanged. The hashes were taken from the sources before
the prime contexts kept a square-root table, so that change is held to the
output of the Tonelli-Shanks path. The `analyze 2`, `analyze 7`,
`analyze 17`, `construct 37`, `construct 53` and `verify` hashes were taken
from the sources in which elements of F_p were still wrapped in a field-element
class, so passing them as plain ints is held to that output. The three
`analyze ... --format table` hashes pin the human-readable form; they were
taken from the sources that still built `analyze`'s output whole, before it
was written in chunks, so the streamed text is held to that output. The other seven `--format
table` hashes pin the human form of `construct`, `verify`, `analyze 2` and
`search`; they were taken from the sources in which `cli.py` still chose
`construct`'s route itself and built the grid payload in four places, so
the one route in `congrua` and the one grid layout are held to that output.
The two `construct 29` hashes were re-pinned when 29 left the table route
for the mod-20 progression, which reaches it. The ten structured `search`
hashes were re-pinned when the document stopped recording the worker count,
an execution setting like `--format`: a search's bytes follow from its range,
`--primitive-only` and `--near-miss-threshold` alone, so `search 1 2000`
has one hash at one worker and at two. The `search 1 20000` hash was
taken from the sources in which every center was still trial-divided, before
each block of centers was factored by one sieve, so the sieve is held to
that output across many blocks, at one worker and at two. The
`verify prime14.txt` hash, a grid of 2s around the square of the prime
99999999999973, was taken from the sources that still proved a center root
prime by trial division over the odd numbers, before Miller-Rabin did, so
the one divider and its proof are held to that output. The two `search`
windows below 10**12 and 10**14 list layouts built from the splits of
15228581, 148456057, 13513513513, 58823529409 and 19999999999997, the last
three through the sieve's cofactors above 2**32; their hashes were taken from
the sources in which `two_squares` still found sqrt(-1) by Tonelli-Shanks,
so the power of a non-residue is held to that output. The two `verify`
grids around the squares of 9999929 and 10000121 have one residue class mod
their center root. The `root9999929.txt` hash, at the largest prime below the
context ceiling of 10**7, was taken from the sources that still read each
root of that class from a prime context's table, so the closed form
min(r mod q, -r mod q) is held to that output. Those sources refused the
`root10000121.txt` grid at the ceiling, so its hash was taken from the
sources with the closed form. The eight hashes of `midedge17.txt`,
`nontriv29.txt`, `corner5.txt` and `noparity.txt` reach `classify`'s
mid-edge, nontrivial and corner kinds and the note for parities outside the
four patterns; they were taken from the sources in which `verify` still
tested the center of each class mod q for zero and asked `intgrid` for the
all-even center line, before those verdicts were read from what it already
held, so that change is held to that output. A change that alters output on
purpose updates the hash and says why.
"""

import hashlib

import pytest

from residuum.cli import main

GOLDEN = {
    "search 1 2000 --workers 1": (0, "263ce6f33709447d313e517b763ef29afc70e94e7487ff63c6bf636be995cd47"),
    "search 1 2000 --workers 2": (0, "263ce6f33709447d313e517b763ef29afc70e94e7487ff63c6bf636be995cd47"),
    "search 1 20000 --workers 1": (0, "58ecd188ad25049fff54863947e59296684560fca400f0701f08be915dc4c043"),
    "search 1 20000 --workers 2": (0, "58ecd188ad25049fff54863947e59296684560fca400f0701f08be915dc4c043"),
    "search 1235 1734 --workers 1": (0, "6f9455189bb37018b367f2eb99a6375f6b27a606ed69478a1a0dcdab0cfa3b73"),
    "search 60 600 --no-primitive-only --near-miss-threshold 0 --workers 1": (0, "b697212359d595d560da9d465a5fac89642da2dd98bf1b2cd8e71f98da2b8c5d"),
    "search 60 600 --no-primitive-only --near-miss-threshold 4 --workers 1": (0, "64b23011d209310e703738c852241634bc8b23497c8a1ef1236c8c603654ad98"),
    "search 60 600 --no-primitive-only --near-miss-threshold 5 --workers 1": (0, "333d0b612f2a1c4bef30b84af3fff7f1d784d38c710bd9d44136713d162f0e84"),
    "search 60 600 --no-primitive-only --near-miss-threshold 6 --workers 1": (0, "e1c727ebb4a7f1ad97c08a69568e62e7ec2f575d7d87ef883c781510a8ec444f"),
    "search 60 600 --no-primitive-only --near-miss-threshold 7 --workers 1": (0, "b101b9d2ee8f9e520ef1681d4878c051349f476cbcc0b2bd4577caacb290a930"),
    "search 60 600 --no-primitive-only --near-miss-threshold 8 --workers 1": (0, "67bf40d357fc4a9e5eed3ed702df1750dfdbce1e07b37cdbca07fb35c62e0e8f"),
    "search 60 300 --near-miss-threshold 4 --workers 1": (0, "3b0d45352f0ab57b02617361a89cc77ed9a55ea4825bd6826c1791b3c52b3c1a"),
    "search 999999999946 999999999962 --near-miss-threshold 4 --workers 1": (0, "8e1a947b31ef0661246f4468d75cf0bd3139588575af487ae51e0350f4ade4bd"),
    "search 99999999999980 99999999999990 --near-miss-threshold 4 --workers 1": (0, "e6fe46647afb1adf028872abb8627529c69367ad20e16d21fe315bf62ea6d758"),
    "table 10000 --format csv": (0, "b494623aa086f57515111119f609a26dc5eb1dd5388ae9608a5052dc4cb33817"),
    "table 10000": (0, "a4575af9a2fcb9add86d604fa9f09968cbbeff77974766942ca8394f74ae4d73"),
    "construct 13": (1, "0d779f49cf01b5463114cc01365c4d3fbf653830b029185985d4bad55a47f980"),
    "construct 29": (0, "27dd531ad0fd062d1690e76d129c4106becf6f9b38015367c7ab61816323d250"),
    "construct 61": (0, "c5623c73f1b9ce4c4f59ffe49e5c70bb53566ec7ccb670ed334d87ddc9cdcdec"),
    "construct 113": (1, "c6059837fe0193345485a46dc87b0ed329f65a44fa1171f64eefa20e6076fc0f"),
    "analyze 1009": (0, "684d354bcb603d8c354e5cdb5a626b73fabd2fa45c0405911c009a6ea71790cd"),
    "analyze 50021": (0, "733b399ff2dee3f0e8ad47984bc1e393952a351306d1693d7fceb45888c9ee63"),
    "analyze 2": (0, "a0d5e5cb3694c4c73a8155e9328c01e79732b938d857cee40e0b386982da11e4"),
    "analyze 7": (0, "cae266201f013f25dbd91f0ef892a7d61bf2489ae131bd069c973b2970e9a44a"),
    "analyze 17": (0, "33a9cf5b6426d2ba5f9ae19639fcd1a6d602ca8d19cfd61a63521fe029e9157c"),
    "construct 37": (0, "c2631699a0aca4ec347d0922d5af1637fe925f8e409156b403b5d03fb1604540"),
    "construct 53": (0, "f9baafe34eed6f8285950604c5c9f0361ce2a3a156ddb35d2cbfa3153942a6b4"),
    "verify sallows.txt": (0, "a1ae2310fc9278c43d5dc2c980b829e1e6c90a2a66330e6bb3cfb4c7ffa26006"),
    "verify tens.txt": (0, "01d796a570f82923908707c283323a77a63807d4eca09a0b170037ff7116db00"),
    "verify prime14.txt": (0, "809dd24f2086a8efaa882168985b96b70e30ea18bf797087ece34b7ca8384d40"),
    "verify root9999929.txt": (0, "5b91b9ae80abdefbfc698a818b59568fe69e620b51078d7c205046607bfa3b8f"),
    "verify root10000121.txt": (0, "abe746c13d96543ba411f431aced5b7b4230207d8cb4ba3082327ff52f3f74da"),
    "analyze 29 --format table": (0, "a3022da964011f6ee40b9fd17543b9f0fb63d270df4fa7b2f1a488746d52fb17"),
    "analyze 1009 --format table": (0, "b6a5605f2a99cce48e7a7ef056a4f090eb09944bdced4967e14dc238e206e342"),
    "analyze 50021 --format table": (0, "28d4fc243212a88ce0d6b450f755aa3e90491f90bdc0c9d18bf3810644c80595"),
    "construct 29 --format table": (0, "20bdf51d3ebe50781a96e868b9df0e64c4dc4523120860548f48e3a1fedd4fa3"),
    "construct 61 --format table": (0, "4dbb18eb3b59e61626d5c85e6aa833eda2de1861bdda0a158ee3ade9061747f7"),
    "construct 113 --format table": (1, "5db16ccbbc684e35cfef25b32e530f33c39e6e88333b795cc8b72ffbf716d408"),
    "verify sallows.txt --format table": (0, "90174c0cd57a090154e97a71555adf6523568017c423a8112d5d0488b02100a7"),
    "verify tens.txt --format table": (0, "ebb4c4387508599e7fcbee58ef4818d560287c9b11e95438cb2e86690a484cbf"),
    "analyze 2 --format table": (0, "fc0044fedd0169a7f405aa43137129d34b1276f71000da0b565171bc7fac1719"),
    "search 60 300 --near-miss-threshold 4 --workers 1 --format table": (0, "be7520f077b42313153b3bccaf1eb5e690414ee4565caf31e488a67a08570cff"),
    "verify midedge17.txt": (0, "9e5ce521dd5dc28a38b87559d113e55bab1d2ccb38028c86a1bc784ba0d59583"),
    "verify midedge17.txt --format table": (0, "2a78250a05d0798c8f245a809a5ccf1e1d84c9d0359406bebd3eafa238137485"),
    "verify nontriv29.txt": (0, "1d756737e5bd5ef62e479ba81e27f0a2a63de8c68baf1de795414ee36134598d"),
    "verify nontriv29.txt --format table": (0, "9d4f20b37718ce160511548345da0f49dcbadd91d3d262dc39a4af37d2695c05"),
    "verify corner5.txt": (0, "6b9a534501668eb7a14dc2f3b022656e7c2ba676a7de3e9cf5c429eee4efd041"),
    "verify corner5.txt --format table": (0, "1192d8a19badffab126dfd9660aa5386d0eeedc572fd902d75b9f06046896566"),
    "verify noparity.txt": (0, "2d067e3e94800e78c19adba4b71b4dd9e49ee1f83a943a03c3959d27e94bea66"),
    "verify noparity.txt --format table": (0, "815892087f9f7d17b33abea179c164cb77113ec5ef8ab025f57ed08b701ca81f"),
}

# verify prints the path it read, so each grid file is written under a fresh
# directory and named relative to it
VERIFY_FILES = {
    # Sallows' square, 7 of 8 lines magic: a residue class mod 113 with roots
    "sallows.txt": (127**2, 46**2, 58**2, 2**2, 113**2, 94**2, 74**2, 82**2, 97**2),
    # nine 10^2 cells: the parity pattern, and magic_sum and classify mod 5
    "tens.txt": (10**2,) * 9,
    # 2s around the square of the largest prime below 10**14
    "prime14.txt": (2,) * 4 + (99999999999973**2,) + (2,) * 4,
    # 1..8 squared around the square of the largest prime below 10**7, and
    # of a prime above it: one residue class each, not magic
    "root9999929.txt": (1, 4, 9, 16, 9999929**2, 25, 36, 49, 64),
    "root10000121.txt": (1, 4, 9, 16, 10000121**2, 25, 36, 49, 64),
    # magic zero-center classes of the three kinds that are not all zero:
    # mid-edge zeros mod 17, the nontrivial class from n = 4 mod 29, and
    # corner zeros mod 5
    "midedge17.txt": (1, 17**2, 4**2, 7**2, 17**2, 6**2, 1, 17**2, 4**2),
    "nontriv29.txt": (13**2, 2**2, 1, 8**2, 29**2, 9**2, 12**2, 5**2, 11**2),
    "corner5.txt": (5**2, 1, 2**2, 3**2, 5**2, 4**2, 6**2, 7**2, 10**2),
    # even center, and parities that are none of the four patterns
    "noparity.txt": (4, 1, 1, 1, 4, 1, 1, 1, 1),
    # refused: a token that is not an integer, a negative entry, ten values,
    # eight values, and a center root of 10**15, past the factoring ceiling
    "nonint.txt": (1, 4, 9, 16, "x", 36, 49, 64, 81),
    "negative.txt": (1, 4, 9, 16, -25, 36, 49, 64, 81),
    "ten.txt": tuple(range(10)),
    "eight.txt": tuple(range(8)),
    "root15.txt": (1, 4, 9, 16, 10**30, 25, 36, 49, 64),
}

# exit code and exact stderr of each refused command; stdout stays empty.
# Exit 2 is a usage error, a value the command does not take, and exit 3 a
# grid file that cannot be read. The entries were taken from the sources in
# which each module raised its own error class and `main` listed the classes
# that exit 2, so merging the classes is held to these codes and messages.
# Refusals that argparse words are left out: its wording moves between
# Python versions.
REFUSALS = {
    "analyze 0": (2, "error: 0 is not prime\n"),
    "analyze -1": (2, "error: -1 is not prime\n"),
    "analyze 15": (2, "error: 15 is not prime\n"),
    "analyze 10000019": (2, "error: p=10000019 exceeds the context ceiling 10000000; a context holds a root table of p entries\n"),
    f"analyze {10**30}": (2, f"error: p={10**30} exceeds the context ceiling 10000000; a context holds a root table of p entries\n"),
    "analyze 13 --max-oracle-p -1": (2, "error: --max-oracle-p must be at least 0, got -1\n"),
    "analyze 13 --max-oracle-p 100001": (2, "error: --max-oracle-p 100001 exceeds the oracle ceiling 100000; the count's cost grows as p^2/64\n"),
    "table 4": (2, "error: table needs max >= 5, got 4\n"),
    "table 10000001": (2, "error: table max 10000001 exceeds the sieve ceiling 10000000\n"),
    "construct 7": (2, "error: coverage is defined for p = 1 (mod 4), got 7\n"),
    "construct 15": (2, "error: 15 is not prime\n"),
    "construct 1000003": (2, "error: coverage is defined for p = 1 (mod 4), got 1000003\n"),
    f"construct {10**30}": (2, f"error: p={10**30} exceeds the context ceiling 10000000\n"),
    "construct 113 --sweep-max-m 1": (2, "error: --sweep-max-m must be in [2, 500], got 1; the sweep tries about 0.2 * m^2 progressions\n"),
    "construct 113 --sweep-max-m 501": (2, "error: --sweep-max-m must be in [2, 500], got 501; the sweep tries about 0.2 * m^2 progressions\n"),
    "search 0 5": (2, "error: need 1 <= e_min <= e_max, got [0, 5]\n"),
    "search 5 4": (2, "error: need 1 <= e_min <= e_max, got [5, 4]\n"),
    "search 1 100000000000001": (2, "error: e_max 100000000000001 exceeds the factoring ceiling 100000000000000; past the sieve's primes below 65536, a center with two large prime factors is trial-divided up to the smaller one\n"),
    "search 1 100 --near-miss-threshold 9": (2, "error: near-miss threshold counts lines of 8, so it must be in [0, 8], got 9\n"),
    "search 1 100 --workers 0": (2, "error: worker count must be in [1, 64], got 0\n"),
    "search 1 100 --workers 65": (2, "error: worker count must be in [1, 64], got 65\n"),
    "verify missing.txt": (3, "error: missing.txt: No such file or directory\n"),
    "verify nonint.txt": (3, "error: nonint.txt:1:10: not an integer: 'x'\n"),
    "verify negative.txt": (3, "error: negative.txt:1:10: negative entry -25\n"),
    "verify ten.txt": (3, "error: ten.txt:1:19: more than 9 values\n"),
    "verify eight.txt": (3, "error: eight.txt: expected 9 values, found 8\n"),
    "verify root15.txt": (2, "error: center root 1000000000000000 exceeds the factoring ceiling 100000000000000; a root with two large prime factors is trial-divided up to the smaller one\n"),
}


def write_grid_file(tmp_path, monkeypatch, name):
    """Work in `tmp_path`, holding the grid file `name` if it is one of
    VERIFY_FILES."""
    monkeypatch.chdir(tmp_path)
    if name in VERIFY_FILES:
        (tmp_path / name).write_text(" ".join(map(str, VERIFY_FILES[name])) + "\n")


@pytest.mark.parametrize("command", GOLDEN)
def test_structured_output_is_pinned(capsys, tmp_path, monkeypatch, command):
    argv = command.split()
    if argv[0] == "verify":
        write_grid_file(tmp_path, monkeypatch, argv[1])
    if "--format" not in argv:
        argv += ["--format", "structured"]
    code, digest = GOLDEN[command]
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command", REFUSALS)
def test_refusal_is_pinned(capsys, tmp_path, monkeypatch, command):
    argv = command.split()
    if argv[0] == "verify":
        write_grid_file(tmp_path, monkeypatch, argv[1])
    code, err = REFUSALS[command]
    assert (main(argv), *capsys.readouterr()) == (code, "", err)
