"""One table of the command lines that the command-level tests run: a row
for `figure`, for each `verify` theorem, for each mode of `verify hlawka`
and `verify extremal` (`cli._UNREAD`) and for each `mc` model
(`tests/test_cli.py` fails on a command or mode without one).

A row holds its command line, "{n}" the size, and
- `small`: the size at which the unused-code guard runs it once for each
  entry of `runs` (`tests/test_commands_run_everything.py`), and the reader
  test once;
- `memory`: its cases of `tests/test_memory_table.py`;
- `pins`: the sha256 of what its pinned lines write (`tests/test_cli.py`).

Extra flags go after the command's names. pytest does not collect this
module.
"""

from dataclasses import dataclass
from itertools import product

from weylprod import irrational, products
from weylprod import stochastic as st
from weylprod.irrational import surd_from_cf
from weylprod.numerics import SUM_CHUNK
from weylprod.products import NORMALIZERS

KB, MB = 1 << 10, 1 << 20
BLOCK = 8 * SUM_CHUNK

# the alphas of the pinned lines, by name
ALPHAS = {
    "golden": "golden",
    "sqrt2m1": "sqrt2m1",
    "sqrt7": "(1+1*sqrt(7))/5",
    # [0; 4000, 1, 1, ...]: figure prints all but its first rows in exponent
    # notation (down to about 1e-233)
    "cf-4000": "(7999-1*sqrt(5))/31991998",
    # [0; 10^7, 1, 1, ...], with 148 exact terms, falls below 2^-3500, where
    # to_str prints each row itself
    "cf-10^7": "(19999999-1*sqrt(5))/199999979999998",
    # one partial quotient of 1000
    "cf-1000": str(surd_from_cf([3, 1000, 7], [1, 2])),
    # ||3 alpha|| < 2^-64: the kernel's exact fallback
    "cf-2^64": str(surd_from_cf([1, 2, 2 ** 64 + 5], [1, 2])),
}
THREE = "golden cf-1000 cf-2^64"


@dataclass(frozen=True)
class Memory:
    """A case of the memory table: the peaks at n1 < n2 are flat (within
    `tol`) or grow by at most c bytes a point, under a cap."""
    n1: int
    n2: int
    cap: int  # bytes, the peak at n2
    c: float | None = None  # bytes a point added; None is flat
    tol: int = BLOCK  # flat only: bytes between the two peaks
    patch: tuple = ()  # (module, name, value) set for the case's calls
    flags: str = ""


@dataclass(frozen=True)
class Pin:
    """A pinned line: at size n, with `flags` and --alpha ALPHAS[alpha]
    (none where alpha is None), its outputs hash to `sha256`."""
    name: str
    n: int
    flags: str
    alpha: str | None
    sha256: tuple


def pins(name, n, alphas, flags, sha256):
    """A Pin for each of the alphas (names, space-separated; "" for no
    --alpha) with each entry of `flags`, alpha by alpha, each taking the
    next equal share of `sha256`: a verify report; an mc run's CSV and
    JSON; the sweep's CSV file and its report."""
    cases = list(product(alphas.split() or [None], flags))
    k, rest = divmod(len(sha256), len(cases))
    assert k and not rest, name
    return [Pin(name, n, f, alpha, tuple(sha256[i * k:(i + 1) * k]))
            for i, (alpha, f) in enumerate(cases)]


@dataclass(frozen=True)
class Row:
    name: str  # the reader test's id
    argv: str  # the command line, "{n}" the size
    small: int
    memory: list
    pins: list
    runs: tuple = ("",)  # the extra flags of each of the guard's lines

    @property
    def names(self):
        """The command's names: `figure`, or `verify` or `mc` and one."""
        return self.argv.partition(" --")[0].split()

    def line(self, n, flags=""):
        """The row's command line at size `n`, with `flags` after the
        command's names."""
        rest = self.argv.partition(" --")[2]
        return [*self.names, *f"{flags} --{rest}".format(n=n).split()]

    def pin_line(self, pin):
        alpha = [] if pin.alpha is None else ["--alpha", ALPHAS[pin.alpha]]
        return self.line(pin.n, pin.flags) + alpha


def formats(*normalizers):
    """--normalizer and --format flags, each normalizer with csv and json."""
    return [f"--normalizer {normalizer} --format {fmt}"
            for normalizer in normalizers for fmt in ("csv", "json")]


FIGURE = Row(
    "figure", "figure --n-max {n}", 100, runs=tuple(formats(*NORMALIZERS)),
    # the text of 2^13 and 2^14 rows: the tolerance of 64 text blocks'
    # bytes over the 3 x 2^14 rows added from 2^14 to 2^16, cut to the
    # 2^13 rows added here (10.7 KB); the peaks were 1-4 KB apart
    memory=[Memory(1 << 13, 1 << 14, cap=MB // 2,
                   tol=64 * products.TEXT_BLOCK * (1 << 13) // (3 << 14),
                   patch=((irrational, "SUM_CHUNK", 1 << 12),))],
    # by --precision-bits, normalizer and format, recorded before rows
    # were rounded in integers: a change to any printed byte must be
    # deliberate
    pins=pins("figure", 300, "sqrt7", [
        f"{bits}{flags}" for bits in ("--precision-bits 1100 ",
                                      "--precision-bits 68 ", "")
        for flags in formats(*NORMALIZERS)], [
        "7525427c6e7bf5f826123e75d4b69594e2e7a3aac8ef01d1b2110d263102670b",
        "2c9bb204df4ee665666ae5219e2186d466839cd60687b98ba54e1d9b903ebb35",
        "6f7f001b37af244445a6d2593c4e82f4e472c30bc6b58fbadcb5ca6ebc2f8de2",
        "c5a766f8f7b8f9275e636fa02920fd38461582e275cda827bbd12f43fca2a1af",
        "14a46a80480e125d064f88aa8c35256f24b798f3bcbdbd8226d57f161523ca47",
        "ffb3bb60a050b62bcc32013efe71203088ccaeffa44feb20a3b7193456bbc8e4",
        "cbb89400f2242917679943e27a63a69cacd130e951fb783b24a75177cd0e1a94",
        "617d8de9bffaba9505fe8090102b5051674d714df7b6dea691a7f3a4ec8254f4",
        "4573ad35671b05917234248b3d1c3312f1e696254db12ba834342076c72b1842",
        "40e28b0c3773079a41dc80edcc76a2826d0691f021bc79e32ab16bc579ab869a",
        "d9461f17298b1cdb67894317aae62d72dc29c7474ea7794d83889a66491df723",
        "dc9a852f07763a84aa83335dad8ef095e9c7a35cd952958262f779095008b5d5",
        "47dbad6de6ed607fbb1bad7a422a9d40526f58c387fd351b816ef858a5106771",
        "827a3cf8669fbbdd670557f6aba28bf6b08d387aabd8f1016633577b230e5e1c",
        "561d7cff0bbddfb433be12c70c3201647424b89b55e0f79458b20e69e40f2970",
        "46807ba5b60dbfc05c36b24f544eda327f0cbf22e62aaa4b3bbdc188f4d5005f",
        "9dda33611954cc612812ba96e16d6a6ba76bc152b8b33313c42295d36f63320c",
        "2a952bd6e1488c8029dde4dcaa3ef3a130817893c68d6637a7c1bc8a2b13a518",
    ])
    # recorded while a second printer still served every row below 10^-12
    + pins("figure exponent", 300, "cf-10^7 cf-4000",
           formats("none", "one_over_N_squared"), [
        "e9c5f51ddd795abc05a23a6a96be933caf22a4f7632e0ed3adf3ef40070b079a",
        "427dcb8e0fd042a5a85ce6ebbd0b46852e7d49229e0d4e09439e38067b9aa419",
        "23d4ee478b8e7b31bf1e383c797f6196051384181f99921f87b26b0bb9c84c14",
        "df7937d0fd65df86e5a8ec124685e7f6f695a72d319b41813e3ab775dc6d5529",
        "e69206c43d108c77dca883fdbea4aec3387177516e225d867e1bb90728daee50",
        "3e2cbcc465c0f421ddd56bf591c4dd270df4bb44e79445bffe4698728b96b979",
        "fc724ca06261dff75a1bc2c28e0775f9a4f48e25ef4b5b1308807becbee64459",
        "f83799405baa4e61a1520775222eb652c7bf51d4aef3ef3a303c55d029865c46",
    ])
    # recorded while every anchor was its own mpf_cos_sin_pi: 313 anchors,
    # where the pins above reach 5
    + pins("figure anchors", 20000, "sqrt7 sqrt2m1", [
        "--normalizer none --format csv",
        *formats("one_over_N"),
        "--normalizer one_over_N_squared --format csv"], [
        "a5a1b3a0547a069208ec48a3ad4308a3e6e7f4708bcfc307f8993015334536d9",
        "5e278018de92617877b31caaf00db33a0195faaad822a377cc1cd62f78bb55df",
        "66361af7f3865adab3223e5b48c759abac466e37fa7483e9e34cc12a25f6a5c9",
        "20633c7a7ce3320f302c86e47bf3515eb11dede46f4a78d54c4c19c2a6bc1144",
        "49ee15634a5faac9eea20c73de78fe8e57aaa5cbc4c4f859af8851bdd5f49ee0",
        "f2cc45bc325ea8fadec35b652aaf410abf0b2c44b65da92c5abc62958814a8b7",
        "1c6c86ed3e428394f8c7b7e15ee6fd9fdd3fa8c5a5f07dd8454f24dfb18803cb",
        "f20276cecb400387d5b8c693a96195072271de7fa3713475396614abcc5c2397",
    ]))

# The verify and mc pins below were recorded with the 4-limb fixed-point
# kernel and the division form of the Ostrowski digit sums: a change to any
# byte must be deliberate.

HLAWKA = Row(
    "verify hlawka", "verify hlawka --gen kronecker --n-max {n}", 200,
    # the orbit (9 bytes a point) and T (8); a cap of 32 bytes a point at
    # 2^20, and 20 bytes a point above it
    memory=[Memory(1 << 20, 1 << 21, cap=52 * MB, c=20)],
    # golden's two pins and those of cf-1000 and sqrt2m1 at 140001 were
    # re-captured when `delta_at` took Delta_N from T by the prefix-sum
    # identity: gamma_hat moved in its last digits, to within the charge of
    # the 200-bit sorted-order value at its N
    pins=pins("hlawka", 20000, THREE, [""], [
        "f1868b6e943d2fabcc9014c523987d10e3c3ede87864aee807c8da360a658fc3",
        "768d084a77bb4a70fa320b7ffa56338b41f03e2a070f870105366e1c225a69d3",
        "f8827baf4a33ed75ec6fffcb77605f28e40b6b1665ce8f1bab639536ac584312",
    ])
    # three blocks of the Kronecker bracket, the last one 8929 N
    + pins("hlawka 140001", 140001, THREE + " sqrt2m1", [""], [
        "75954af5a4931f91680dc40c1b5af1b989ee994e188b4d7c88577f8b88a8ebe3",
        "21f21d63dda4b56b4a73383d2819c601a2f76349c705bfa3b7a553f10abcaf99",
        "17c39e9f90db88ecf04ef18675c92efd563100ba6e2561d8af5fb9232e2f0d80",
        "f0021e6bb89184e66107fed7281d78bbae6137ee69e67957cbd7782df27407d5",
    ]))

HLAWKA_VDC = Row(
    "verify hlawka --gen vdc", "verify hlawka --gen vdc --n-max {n}", 200,
    memory=[Memory(1 << 20, 1 << 22, cap=12 * MB)],
    pins=pins("hlawka vdc", 20000, "", [""], [
        "6f83802fd678b41a9c0e969bb275c34943de2ecbf2160f91b65d22c7c51002f5",
    ]))

HLAWKA_GRID = Row(
    "verify hlawka --gen grid", "verify hlawka --gen grid --N {n}", 200,
    memory=[Memory(1 << 18, 1 << 21, cap=17 * MB // 4)],
    # four blocks, the last one cut
    pins=pins("hlawka grid", 200001, "", [""], [
        "5c851aa6eaf208a3f9d6392cfea1e222e6f3fdaa4a64ff46d5c262579f1ce12e",
    ]))

EXTREMAL = Row(
    "verify extremal", "verify extremal --n-max {n}", 64,
    runs=("", "--format csv"),
    # the 8k and 32k rows of n_max 512 and 1024: 256 KB is 11 bytes a row
    memory=[Memory(512, 1024, cap=3 * MB, tol=256 * KB, flags="--format csv"),
            Memory(512, 1024, cap=5 * MB // 4, tol=256 * KB)],
    # 33024 rows: the CLI's sweep blocks of at most 2^12 rows end inside it
    pins=pins("extremal csv", 1030, "", ["--epsilon 0.1 --format csv"], [
        "124c8d15783a2ecc14f91cad89867af3c76c8206cb8c4a1d70c9bf60bed4dae0",
        "e29ae5425a7ec2f01bb01b519aeddb047074a21fc99d9f92f377590561b4c726",
    ]))

EXTREMAL_D = Row(
    "verify extremal --d", "verify extremal --N {n}", 16,
    runs=("--d 0.125",),
    memory=[Memory(1 << 17, 1 << 19, cap=48 * KB, flags="--d 0.125")],
    # one compared row
    pins=pins("extremal single", 1024, "", ["--d 0.0625"], [
        "e689aeb40d4b492e810ef3dcba463a4cc45455e7e62210968001100ceb6c60c6",
    ])
    # M = 307.2 is no integer, so nothing is compared
    + pins("extremal unchecked", 1024, "", ["--d 0.3"], [
        "56922362198e727b9196119febaf41fc2ea3d5247efcfbfd686079fd611d5ff0",
    ]))

SANDWICH = Row(
    "verify kronecker-sandwich", "verify kronecker-sandwich --q-max {n}", 200,
    # denominators of sqrt2m1, so the orbits are 80781 and 470831 points
    memory=[Memory(80782, 470832, cap=13 * MB, c=22)],
    pins=pins("kronecker-sandwich", 20000, THREE, [""], [
        "00dc86ccaddb1a691535461d9fa0a2e74499c57946825f9937505b70d287c10e",
        "c41be218c7fbb87d43b6bbc5636ab49370ca96a27a4bb406434ed0402e5ae5d4",
        "9bfb342dc97c5156d2addce50b0c8d4aefb43e42b34788816a226233a06ac295",
    ]))

OSTROWSKI = Row(
    "verify ostrowski", "verify ostrowski --n-max {n}", 200,
    memory=[Memory(1 << 17, 1 << 19, cap=29 * MB, c=58)],
    pins=pins("ostrowski", 20000, THREE, [""], [
        "9c3a4735371ca48a08fde8fd81ed50d2463935aa9ba257defe504507d3f2ebff",
        "739ef7e20154ae60908363369cb8c9cc13cc9182b85293b2f5da2cfa000f6460",
        "cb3bb3b852d720eba868ad0d1945d4344aba007de9174d6d13735412b9bc6d40",
    ]))

CESARO = Row(
    "verify cesaro", "verify cesaro --n-max {n}", 200,
    memory=[Memory(1 << 17, 1 << 19, cap=34 * MB, c=68)],
    pins=pins("cesaro", 20000, THREE, [""], [
        "a17d870735e2c848bd37685cb511defb12b7510327433c642c35228cc93f8417",
        "33abdd5077153c114906ce9df8c8a81b8e3ad51f5a25a28b668bb4993c099a12",
        "dad27abd6535ebd7ccf88580679555c41093da100583e9848b676c980524ebd1",
    ]))

TYPE_GROWTH = Row(
    "verify type-growth", "verify type-growth --n-max {n}", 200,
    memory=[Memory(1 << 17, 1 << 19, cap=19 * MB, c=33)],
    pins=pins("type-growth", 20000, THREE, [""], [
        "cc4b7da9bd075be873992d247fb947557c88bc7f020e394a5b226f21c66a937b",
        "dee141c25ff378c51f220a4622b4d0b95045ef8d7d71d15fb0d953ae77d9e2e6",
        "dbb1d21d3a45463de66312e8a6b7eaca1519d93f6c5de8bc83c8c33bcc2c09f1",
    ]))

VDC_LIMITS = Row(
    "verify vdc-limits", "verify vdc-limits --s-max {n}", 8,
    # 2^17 and 2^20 points
    memory=[Memory(17, 20, cap=5 * MB)],
    # 2^18 - 1 points in four SUM_CHUNK blocks
    pins=pins("vdc-limits", 17, "", [""], [
        "bb234505d44a33184affd14156f799446be5c5a710095c4baf087e7de9052064",
    ]))

CONJECTURES = Row(
    "verify conjectures", "verify conjectures --n-max {n}", 200,
    memory=[Memory(1 << 17, 1 << 19, cap=14 * MB, c=20)],
    pins=pins("conjectures", 20000, THREE, [""], [
        "f256d103ebbf9c9331d8fef4a1931981adda752734538eaea6d8cc95cdf63377",
        "6aa027fa31f4d15f3fdeedf1dc050b836a0071ca92cd582a627fe31bc61eb84d",
        "1f19220e519a57c3f8b92e5564976868754dbd6c624fcc1eea16fa3e6f1a2c05",
    ]))

# The mc memory cases run 8 paths, the other lines 2.

MC_IID = Row(
    "mc iid", "mc iid --n-max {n}", 1000, runs=("--paths 2",),
    # the paths on two threads, whatever the host's CPUs: each thread
    # holds blocks of its own
    memory=[Memory(1 << 17, 1 << 19, cap=15 * MB // 4, flags="--paths 8",
                   patch=((st, "_cores", lambda: 2),))],
    pins=pins("mc iid", 20000, "", ["--paths 2"], [
        "9a45baf2218cef9a02c8be4f2180b8309c89fe6f4f352b12b77c6b0932aa4a20",
        "433c341345e6e0d13c77580270dcfd865141f5c45591a7af355393c2d5d9534d",
    ])
    + pins("mc iid 140001", 140001, "", ["--paths 2"], [
        "b4b5005c375451be0db977c4de2b60f818943b5fca7dccaa171a9d9bac0c75b3",
        "e33f77cec32f14223b668901263dbe3d0294f0a4b72999ed49e14b17ef349bcb",
    ]))

MC_RADEMACHER = Row(
    "mc rademacher", "mc rademacher --n-max {n}", 200, runs=("--paths 2",),
    memory=[Memory(1 << 17, 1 << 19, cap=6 * MB, flags="--paths 8")],
    pins=pins("mc rademacher", 20000, THREE, ["--paths 2"], [
        "5dde16037030f2a70d669605a0aabe2a02afef27b8afd2e29c2f455c3e6e7c3e",
        "ee11522c1287c90bbe5b6d94655e2127feb100f83ea88e4e11cb9ee139d5fad6",
        "767a5fcb1405b5b21af12127a4685c7af18991c6852ff7845d8a5948e6bdbec9",
        "4f852af07a73c030a5780cf7c30f799de808065016962e8419f56e92e1c35a98",
        "1405fb25433520379fda8de4019af73ea0e885b0ddcd6bce9f8737a8ecb7869f",
        "c3e9cfaeb49b4147016a3c3967eb72e225be7577ff8cc68d95463768020ac01f",
    ])
    # 140001 terms: three SUM_CHUNK blocks, the last one 8929 terms
    + pins("mc rademacher 140001", 140001, "cf-2^64 sqrt2m1", ["--paths 2"], [
        "e3031984876b673eac45784676d37d348d4797f83ccc2d787e7b0bcc4de80e47",
        "0762ac1d0ef15374f41e14dd9d32b0cf22274ab8a17ebd8ee99d79bc7bc8bdf0",
        "1103155a714a0b0020e1e7ea7836ee9eb58ec305bc0b69290330df5270db6e60",
        "d1ec8f49d7131799f5be3e6467c38a2a801492a99f051dce0a7ecf7659d2b9c6",
    ])
    # path 1 of seed 1 (sqrt2m1) peaks at N = 94334, past the first block
    + pins("mc rademacher 140001 seed 1", 140001, "sqrt2m1",
           ["--paths 2 --seed 1"], [
        "f9b32a4aa5cb8726736455e9874b7d15dd44cb0df6382cbe5533fc5c91d8be6e",
        "c08d5e61b0c32f98932591665b1fbf259a23b282dd82d08ab0e6e32ff37fca09",
    ]))

MC_SUBSEQUENCE = Row(
    "mc subsequence", "mc subsequence --terms {n}", 200, runs=("--paths 2",),
    # the weights and their prefix sums, 16 bytes a coin draw; a cap of
    # 60 bytes a term at 2^18
    memory=[Memory(1 << 18, 1 << 19, cap=26 * MB, c=44, flags="--paths 8")],
    pins=pins("mc subsequence", 20000, THREE, ["--paths 2"], [
        "5d67041ec350d8d2660d4ad56adbed7c3b30c76f7d741c7a38c0eeb61d3d305f",
        "00b3657473e8c719c38d3b4ee5d8ac0f7ada286daea134a3ae351ca0b7da41a4",
        "935b7678f9851e44b7cf44d47f5f1cdb54643c07a5e064c73950382754d037f7",
        "5e83fcb0bbe1e9969748eb0b542c6d09fddbbebdc6819b1ff056e56c18453c08",
        "dc0542447fca2196dafbb042eb6be7b3bad858a2640d9d596b79cd45ba9dd0ad",
        "287b15c7a451e1839aad62216c131b115748a87611165f4060253a2a4c092997",
    ])
    # 69256 coin flips a path
    + pins("mc subsequence 30000", 30000, "cf-2^64 sqrt2m1", ["--paths 2"], [
        "dc0542447fca2196dafbb042eb6be7b3bad858a2640d9d596b79cd45ba9dd0ad",
        "ec0a40c2fb8e92e5afe0d2b2b5733f99a10b67d3e49b2af6d2997f8b9c17d5b7",
        "bed39573caf77ad52796a11c2f8aecb1689c8fa2b2533fde7e76716a3eaf3eed",
        "e4a118088aca4645fd1fe2892c1a8d33d0b054a86ee28609e0da4546af742914",
    ])
    # three SUM_CHUNK blocks of K, the last one 8929 terms; every path
    # peaks before K = 30000, so each CSV is a shorter pin's too
    + pins("mc subsequence 140001", 140001, "cf-1000 cf-2^64 golden sqrt2m1",
           ["--paths 2"], [
        "935b7678f9851e44b7cf44d47f5f1cdb54643c07a5e064c73950382754d037f7",
        "ed081995792868893eda698abcdd84adf17d1eb8d8db79eef815945fe54bc5d8",
        "dc0542447fca2196dafbb042eb6be7b3bad858a2640d9d596b79cd45ba9dd0ad",
        "41e25b79c532c92a9c0f8aa22fdab900733e9b56d4b64b12831c0dd467bf7f2e",
        "5d67041ec350d8d2660d4ad56adbed7c3b30c76f7d741c7a38c0eeb61d3d305f",
        "2448646465cd962b510d2064785af697d7daa43c19488f9fb54bbc7a62aa47da",
        "bed39573caf77ad52796a11c2f8aecb1689c8fa2b2533fde7e76716a3eaf3eed",
        "393d1e31e6abda376b858078616e31b3524cce4858c241f738d5a4edac2af059",
    ])
    # path 0 of seed 5 (sqrt2m1) peaks at K = 139399, in the third block
    + pins("mc subsequence 140001 seed 5", 140001, "sqrt2m1",
           ["--paths 2 --seed 5"], [
        "a3bbb15cdbe54acbcc8fed2e06f90353906ab2d53def29fd7b4a3036319736f5",
        "63a6ed5760c5fb2c384b9bc77a5e9567e17192703c218fb4f53b6c6ddf7f7180",
    ]))

ROWS = [FIGURE, HLAWKA, HLAWKA_VDC, HLAWKA_GRID, EXTREMAL, EXTREMAL_D,
        SANDWICH, OSTROWSKI, CESARO, TYPE_GROWTH, VDC_LIMITS, CONJECTURES,
        MC_IID, MC_RADEMACHER, MC_SUBSEQUENCE]
