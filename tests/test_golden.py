"""Byte-for-byte pins of the CLI's JSON output.

Each digest is the sha256 of everything ``main([..., "--format", "json"])``
prints.  The raw Schreyer resolution (``--non-minimal``) is pinned too, so
a change to the order in which syzygies are built or pruned shows up here
even when the Betti numbers stay the same.
"""

import hashlib

import pytest

from monocurves.cli import main

GOLDEN = {
    "resolution 3 5 7":
        "9bf89e05a83922a5d1773bec085aaab07446bb623e5dcf3c25f2e764c6946fa8",
    "resolution --non-minimal 3 5 7":
        "fa794f2752fc81dbe79aa134483b08d49647ffd139c2fa8b5270b0d08c963c42",
    "ideal 3 5 7":
        "5c8fa1fa82c41a1097db37451d52a60a452663d394304a1ca9c8fe11d155610d",
    "groebner --order lex 3 5 7":
        "8557bacdeaa118448784d9c7189b2a197348a8f977129496c7ce8b3744f1d65b",
    "resolution 5 7 9 11":
        "210c6952716c9cf0a369f0bc351288041ce90966713e95c5ac3d87ffb8f4eecb",
    "resolution --non-minimal 5 7 9 11":
        "3c92e3c43b9119f4acfd1440be60fcc176a922b8537d791902fcdbefbaccf7c3",
    "ideal 5 7 9 11":
        "143211c1c8143e795da1a12ece2490cb4d88e1fb98936fa85d2d2fa91b5f382a",
    "groebner --order lex 5 7 9 11":
        "dad83e174e715509e064f77a45c1608295c12d81ffa6e29b61360be35ad0d0c4",
    "resolution 6 7 8 9 10 11":
        "0bfb896dc355ebacdaec3a28adcd402b1ba56ee176f3e2aa252f60f84fa2f2a3",
    "resolution --non-minimal 6 7 8 9 10 11":
        "2e57312e178d99f5536ae53f4fe67a8a04176b0e9b30ea11430f387d2981fb39",
    "ideal 6 7 8 9 10 11":
        "efb63b0b72575cd880967e8ba6c7b47b0933db836c846762c0acde10d480a816",
    "groebner --order lex 6 7 8 9 10 11":
        "64b127469d94ffda9542e80fc11d77f0892c1d89323451be2debf443dc1caa64",
    "resolution 12 15 20 23":
        "cfe5c2f68dc6d2098cd4ec02c4e0a28deba90518313bc47146ed9560e8ed13a0",
    "resolution --non-minimal 12 15 20 23":
        "637dbfc115766927a4e911ab9772ef59549626b6a1436631f4d1cfc20379aff5",
    "ideal 12 15 20 23":
        "3a1811bdb4bf0ec6e488d3630d4d24cad70972fc0adf5d6e426b55fb141a022c",
    "groebner --order lex 12 15 20 23":
        "8aeb2980e0f47284c9b9b4463251d35a9aa784c630086d60778586ca7a3b0df1",
    "bresinsky --q2 4 --verify":
        "5db64fb8339137b9924ce3020553696f362b0a1098844498fb82f8d477c60381",
    "concat-sweep --a 5 --d 3 --b 17:20":
        "47f3e6f18ca45515328472db280ca9d9011d8cea95074aeb928771b76ede9f8f",
    "groebner --order grevlex 12 15 20 23":
        "5b3864599eb9b9f89976f5cc26e37e935b0e68bfad8608e55de4f01e12b4bd90",
    "groebner --order grlex --perm 2,1,0,3 5 7 9 11":
        "576bc8150cbe4c4f0779c3f61340ba5fbe4c28945c25a9ac2a4e6f0798a1701f",
    "homogenize 3 4 5":
        "a553dd9c58dca0d555859b2bb642b4479f749100003d17b5a44870131fc06c32",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_json_output_is_pinned(capsys, command):
    code = main(command.split() + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
