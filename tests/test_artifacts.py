"""Byte identity of every artifact except ``run.json`` (which holds timings).

Every synthetic fixture is built with every method for both candidates, plus
one dense Vietoris-Rips build on a 6 x 6 grid (36 red centroids, many tied
distances, 7,140 triangles), and every method on a one-precinct map, whose
single bar is born at the horizon under Vietoris-Rips and alpha (the barcode
plot's degenerate axis).  Each file's sha256 must match the digest
recorded here; a rewrite of any layer that changes a single byte of a
barcode, complex, raster or drawing fails this gate.  To see which file
moved, compare the failing build's directory against the table.

Each build also records which reduction path each dimension took: the
three dense Vietoris-Rips builds (dissent, grid and the 6 x 6 grid, red)
reduce their triangles by the row sweep and every other dimension goes
through the column loop, so the table guards both paths.  The warnings the
builds are known to raise are matched; any other warning fails the build.
"""

import contextlib
import hashlib
import io

import pytest

from geoph import homology
from geoph.cli import main
from geoph.pipeline import METHODS

pytestmark = pytest.mark.filterwarnings("error")

DIGESTS = {
    ("grid", "vr", "blue"): {
        "barcode.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "barcode.svg": "e258b23c89439cf703cd2ce59daa973f5d14edf4f599e370ea49c587f7077b09",
        "complex.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "feature_map.svg": "53f7f6617576cc3c4894694ba6e347578d20f69e10313a12e8901021418add9b",
    },
    ("grid", "vr", "red"): {
        "barcode.json": "6508a009a8cd39a68e8ce0df09669f173d0313c80129f18bb9c716ee892bdc46",
        "barcode.svg": "1f2b5982214d21455f267d2f2a93103142e7de192579c55b4b02b09e70f023c2",
        "complex.txt": "a209c27b4e035bd1b3e04fecc4ecc446ca143c0e725b08e3691a64369f0b697c",
        "feature_map.svg": "29e8dbfbccf9515e03f091547c37b8fb78988de8961e38211e8aa2c62d8bc838",
    },
    ("grid", "alpha", "blue"): {
        "barcode.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "barcode.svg": "e258b23c89439cf703cd2ce59daa973f5d14edf4f599e370ea49c587f7077b09",
        "complex.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "feature_map.svg": "53f7f6617576cc3c4894694ba6e347578d20f69e10313a12e8901021418add9b",
    },
    ("grid", "alpha", "red"): {
        "barcode.json": "c7f08cc6e798592d531a15a02f872f6dc9e23ffb24a8c7f0f7f5739cd87e79dd",
        "barcode.svg": "2713107b7183105d745ecd78cbf92341f04d6bba9464e34303a8aa0562271249",
        "complex.txt": "1bc357405aa5c1b13ccb81db52372b7989d58e29d88ad30993334d367cca030b",
        "feature_map.svg": "29e8dbfbccf9515e03f091547c37b8fb78988de8961e38211e8aa2c62d8bc838",
    },
    ("grid", "adjacency", "blue"): {
        "barcode.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "barcode.svg": "e258b23c89439cf703cd2ce59daa973f5d14edf4f599e370ea49c587f7077b09",
        "complex.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "feature_map.svg": "53f7f6617576cc3c4894694ba6e347578d20f69e10313a12e8901021418add9b",
    },
    ("grid", "adjacency", "red"): {
        "adjacency.txt": "2b72dd7a7ebb13e1dba3495f24ad6e8c4023a56e25bf160db0c2b641ffa901b7",
        "barcode.json": "db99fd57e1f66b48d0f08191f764d99ee66362a941aeb0e8270e3c352455c1cd",
        "barcode.svg": "942a0b773324fd3e4fa78728ba57dcbe26a26e26d2fd17d39e82a3380be54083",
        "complex.txt": "e3a55c327e4b1d3441683f8fcdd0a9eb3631e6001ff3aee682c4bedbce7b8368",
        "feature_map.svg": "53f7f6617576cc3c4894694ba6e347578d20f69e10313a12e8901021418add9b",
    },
    ("grid", "levelset", "blue"): {
        "barcode.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "barcode.svg": "e258b23c89439cf703cd2ce59daa973f5d14edf4f599e370ea49c587f7077b09",
        "complex.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "feature_map.svg": "53f7f6617576cc3c4894694ba6e347578d20f69e10313a12e8901021418add9b",
    },
    ("grid", "levelset", "red"): {
        "barcode.json": "6871561cb5fff8c67a7eab8dd973da2c74ad86b514b347c3e3d5db5e605f960d",
        "barcode.svg": "199a95c1f414ef58bad85646c1e3ad12cc3ada7621b9831543cc275ec588612b",
        "complex.txt": "eaf69bd2e953e3423f876c0a5ecce7f79ac2bfa4f1fa8792066e73002f658a8a",
        "feature_map.svg": "53f7f6617576cc3c4894694ba6e347578d20f69e10313a12e8901021418add9b",
        "field.pgm": "bfc9f7f769f7ca633657e0e20343c1ec3c8ea71c1b9cd4f03167f1e76c9151e0",
        "mask.pgm": "74254e45ffd44659f7c6f53e031d5f61aa9e952c949232d82370d563680427e2",
        "schedule.txt": "f699b319801f9a3585ac33d1e3565a3473c776247f87a2826205da3b13c304e2",
    },
    ("annulus", "vr", "blue"): {
        "barcode.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "barcode.svg": "e258b23c89439cf703cd2ce59daa973f5d14edf4f599e370ea49c587f7077b09",
        "complex.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "feature_map.svg": "88bb24114216a46e33f9751ef96b95e2603c9fdb337258a38ce040dceac87aa8",
    },
    ("annulus", "vr", "red"): {
        "barcode.json": "6871561cb5fff8c67a7eab8dd973da2c74ad86b514b347c3e3d5db5e605f960d",
        "barcode.svg": "199a95c1f414ef58bad85646c1e3ad12cc3ada7621b9831543cc275ec588612b",
        "complex.txt": "4a57a29906697af07fab967273e54422a90ee5c7f7b1c6f1725aefeadc4e4ef8",
        "feature_map.svg": "88bb24114216a46e33f9751ef96b95e2603c9fdb337258a38ce040dceac87aa8",
    },
    ("annulus", "alpha", "blue"): {
        "barcode.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "barcode.svg": "e258b23c89439cf703cd2ce59daa973f5d14edf4f599e370ea49c587f7077b09",
        "complex.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "feature_map.svg": "88bb24114216a46e33f9751ef96b95e2603c9fdb337258a38ce040dceac87aa8",
    },
    ("annulus", "alpha", "red"): {
        "barcode.json": "6871561cb5fff8c67a7eab8dd973da2c74ad86b514b347c3e3d5db5e605f960d",
        "barcode.svg": "199a95c1f414ef58bad85646c1e3ad12cc3ada7621b9831543cc275ec588612b",
        "complex.txt": "4a57a29906697af07fab967273e54422a90ee5c7f7b1c6f1725aefeadc4e4ef8",
        "feature_map.svg": "88bb24114216a46e33f9751ef96b95e2603c9fdb337258a38ce040dceac87aa8",
    },
    ("annulus", "adjacency", "blue"): {
        "barcode.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "barcode.svg": "e258b23c89439cf703cd2ce59daa973f5d14edf4f599e370ea49c587f7077b09",
        "complex.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "feature_map.svg": "88bb24114216a46e33f9751ef96b95e2603c9fdb337258a38ce040dceac87aa8",
    },
    ("annulus", "adjacency", "red"): {
        "adjacency.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "barcode.json": "2fc1b0eeb0340c5b214da056828a2509b4fd910389cadd89ed77c17b47a3a2e0",
        "barcode.svg": "a0db1807805d701b1a1314a7af727e929259a8f7ed868b1c485e7adb19df218f",
        "complex.txt": "441f5f88f57b0b3610fe61b8d6c2160e5e5f2ed8745ae43a0f9766ca01260c78",
        "feature_map.svg": "88bb24114216a46e33f9751ef96b95e2603c9fdb337258a38ce040dceac87aa8",
    },
    ("annulus", "levelset", "blue"): {
        "barcode.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "barcode.svg": "e258b23c89439cf703cd2ce59daa973f5d14edf4f599e370ea49c587f7077b09",
        "complex.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "feature_map.svg": "88bb24114216a46e33f9751ef96b95e2603c9fdb337258a38ce040dceac87aa8",
    },
    ("annulus", "levelset", "red"): {
        "barcode.json": "c6d8c36416f9c7bc7cb7951d200ee74c618dc26a09cdd636aeb26b7a00b20c6d",
        "barcode.svg": "494a81f6d93ff1b2730259d2aecbb4d75c8205323e983cfc2c24986c186e50bc",
        "complex.txt": "043c1e13d0d364267ae99809ff84d95e6feea3ee23d3b75d4eb6ef5c4bcca91e",
        "feature_map.svg": "35ac4a9e88276c21db876756ea073939667f40c10bed1e3a05e0010d6d01ba71",
        "field.pgm": "ca99bb5d3e96896d0d4ab7567f4acfc0c5e9c268534f03f5947b37dc5e5337a1",
        "mask.pgm": "8fec6d12a0a108ac817ba5c0ef1a33259ba32606890f8a393d86f236e72ce65f",
        "schedule.txt": "68f572c51379f20f99890efcf581a40b194742ad5b37d7840582d8e7e6767d60",
    },
    ("blobs", "vr", "blue"): {
        "barcode.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "barcode.svg": "e258b23c89439cf703cd2ce59daa973f5d14edf4f599e370ea49c587f7077b09",
        "complex.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "feature_map.svg": "8e8597a1f997b81d3dcec19928c5d811212e550449cab4d17b5db93156e67059",
    },
    ("blobs", "vr", "red"): {
        "barcode.json": "9d680205635daca90ed438d35fc4021082fc1bbee1db6ff1a309778a9f023ed9",
        "barcode.svg": "2a04f497b3d86b9d175ce06c70d1448cbf94d74d54c1b5fac2a6d316a8032d70",
        "complex.txt": "4be182414713595723d4573e63fe2d720bdd74a4601c16379d055df2cca91127",
        "feature_map.svg": "8e8597a1f997b81d3dcec19928c5d811212e550449cab4d17b5db93156e67059",
    },
    ("blobs", "alpha", "blue"): {
        "barcode.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "barcode.svg": "e258b23c89439cf703cd2ce59daa973f5d14edf4f599e370ea49c587f7077b09",
        "complex.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "feature_map.svg": "8e8597a1f997b81d3dcec19928c5d811212e550449cab4d17b5db93156e67059",
    },
    ("blobs", "alpha", "red"): {
        "barcode.json": "cbc69dd77f6963d339ad10838b4207215f41712891b41de4c250b16282c717d0",
        "barcode.svg": "cbc7f640aae64bcdec95dd463ba1853ef7af156b12ac27c6e0eff7b632cf6428",
        "complex.txt": "a8bd918ccb565fba417e717b56be56106dff0c3fc172e76e5a59fc94d0e94566",
        "feature_map.svg": "8e8597a1f997b81d3dcec19928c5d811212e550449cab4d17b5db93156e67059",
    },
    ("blobs", "adjacency", "blue"): {
        "barcode.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "barcode.svg": "e258b23c89439cf703cd2ce59daa973f5d14edf4f599e370ea49c587f7077b09",
        "complex.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "feature_map.svg": "8e8597a1f997b81d3dcec19928c5d811212e550449cab4d17b5db93156e67059",
    },
    ("blobs", "adjacency", "red"): {
        "adjacency.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "barcode.json": "b373b0639fb3a60c403d9a16672842870bc26fd9ffe0af779dcf471004c2773d",
        "barcode.svg": "61af2a85fbbd3ac0b1f036eefa1292c85f776e5b30c9fc69c3745616a1eea0dc",
        "complex.txt": "91d80cecb6916656805acb40c3ef6950f538cc2c7f33d6c90114715bb11d068f",
        "feature_map.svg": "8e8597a1f997b81d3dcec19928c5d811212e550449cab4d17b5db93156e67059",
    },
    ("blobs", "levelset", "blue"): {
        "barcode.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "barcode.svg": "e258b23c89439cf703cd2ce59daa973f5d14edf4f599e370ea49c587f7077b09",
        "complex.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "feature_map.svg": "8e8597a1f997b81d3dcec19928c5d811212e550449cab4d17b5db93156e67059",
    },
    ("blobs", "levelset", "red"): {
        "barcode.json": "bf0a6293514de787d9f54c7c928b8a7f902cd5b39601980f206dbfd7d381332a",
        "barcode.svg": "be7281e6b73fbba0f03f9d4ff1498cc6b595481948f403602fbf7a1857cfb36b",
        "complex.txt": "918056777dac56e7315b410e08cb7b5936dbf11aa7d6703501715bcf113be28e",
        "feature_map.svg": "8e8597a1f997b81d3dcec19928c5d811212e550449cab4d17b5db93156e67059",
        "field.pgm": "331e60fe5a237e3652dc552297fe40243d3473dc19e2075e6ff8d3290599cdcc",
        "mask.pgm": "91ca94c500078322cf318a543192358dc007c00d5893a76ec8203dab64f84460",
        "schedule.txt": "2ea01b27b93f5bde6fe4cf64c948fb98b88a08e85ed6db2d3521e60e85149dc6",
    },
    ("dissent", "vr", "blue"): {
        "barcode.json": "6871561cb5fff8c67a7eab8dd973da2c74ad86b514b347c3e3d5db5e605f960d",
        "barcode.svg": "199a95c1f414ef58bad85646c1e3ad12cc3ada7621b9831543cc275ec588612b",
        "complex.txt": "4a57a29906697af07fab967273e54422a90ee5c7f7b1c6f1725aefeadc4e4ef8",
        "feature_map.svg": "05b543ca80ed3aab1d1873493e01127c9aa9e7ecbbbb07f4203f54e788f8ae73",
    },
    ("dissent", "vr", "red"): {
        "barcode.json": "945671d4807962a9152dfc08208cac8d861e238420a7e98b660724b353d26deb",
        "barcode.svg": "30a8272630d516b2849d6339fe746b5757e49878b2001c1169ad895e75975134",
        "complex.txt": "d1ccfa37fc3b41bff732e7c889caf595032380f11cd269190cee57cb700093c3",
        "feature_map.svg": "93fd14fb4f097ad2fcdc5e88294b1e6c6b8d80d0f1c0f3cbf7f7172ebb5c35b2",
    },
    ("dissent", "alpha", "blue"): {
        "barcode.json": "6871561cb5fff8c67a7eab8dd973da2c74ad86b514b347c3e3d5db5e605f960d",
        "barcode.svg": "199a95c1f414ef58bad85646c1e3ad12cc3ada7621b9831543cc275ec588612b",
        "complex.txt": "4a57a29906697af07fab967273e54422a90ee5c7f7b1c6f1725aefeadc4e4ef8",
        "feature_map.svg": "05b543ca80ed3aab1d1873493e01127c9aa9e7ecbbbb07f4203f54e788f8ae73",
    },
    ("dissent", "alpha", "red"): {
        "barcode.json": "384638e400f72aaaf20072b691f49d1a6f332fd4fafbcec1e64224f29c79052b",
        "barcode.svg": "7e16ce69c3798c07e9ca9c3721f3045af5124b060d5241431105dde3745d0078",
        "complex.txt": "923144a8ffd9125d0ec84d3ed74cddf9fad6067e185b9c1288674e3ccd74ed54",
        "feature_map.svg": "93fd14fb4f097ad2fcdc5e88294b1e6c6b8d80d0f1c0f3cbf7f7172ebb5c35b2",
    },
    ("dissent", "adjacency", "blue"): {
        "adjacency.txt": "d1a89526b6aeef7b9c1de4446a177edba9a63b89db0aa3cfff288d54e91e0705",
        "barcode.json": "2fc1b0eeb0340c5b214da056828a2509b4fd910389cadd89ed77c17b47a3a2e0",
        "barcode.svg": "a0db1807805d701b1a1314a7af727e929259a8f7ed868b1c485e7adb19df218f",
        "complex.txt": "441f5f88f57b0b3610fe61b8d6c2160e5e5f2ed8745ae43a0f9766ca01260c78",
        "feature_map.svg": "05b543ca80ed3aab1d1873493e01127c9aa9e7ecbbbb07f4203f54e788f8ae73",
    },
    ("dissent", "adjacency", "red"): {
        "adjacency.txt": "d1a89526b6aeef7b9c1de4446a177edba9a63b89db0aa3cfff288d54e91e0705",
        "barcode.json": "a1587e06fc52b7ec358b380dc05990e2d62258d3bfc1c7fc9ee3afdc82d4d9c1",
        "barcode.svg": "3a8fa3b0fce9e199f007fcd88b023d9cd46784566a10f49c2d27c07558bdf136",
        "complex.txt": "cef93940f4ab097d2bca0035961b2f1959d992ccb7617df330d2cff2df0f4892",
        "feature_map.svg": "5edb1705f4a85bde50c9a5f1c2c1f3089a3f2e1a086d61ab28b4b1e828ae6418",
    },
    ("dissent", "levelset", "blue"): {
        "barcode.json": "686950de8ca894eb12a12c6dd1f7e77467afaac94115f5f2cc5f61d8feaec9c0",
        "barcode.svg": "ef2ded3c7808445b5a4e9703cbc6cfdc48442d4431bc23fa5a46dbcc427d5953",
        "complex.txt": "cd83bde983bbb6d9426f1ac8f3e3c21d67c57b92f301aecdefe246d1be28c121",
        "feature_map.svg": "05b543ca80ed3aab1d1873493e01127c9aa9e7ecbbbb07f4203f54e788f8ae73",
        "field.pgm": "fd550733b14e2f874b7168b57dd4246dbf1a660679c86a2596708f16f19cd651",
        "mask.pgm": "5e26f368bd852dbfa3095f9b53fc08994d1e217b878b2e6df54ca3403531da9f",
        "schedule.txt": "18fb9627a570d1c7d13c00056af2f11d6bc7ba19ad52ca951ec2daab94bd2f68",
    },
    ("dissent", "levelset", "red"): {
        "barcode.json": "2f99b38d12ad5cf618bfaa12bfcf4e8cf65babc611020332a5e07f46ad1374b2",
        "barcode.svg": "fc4ea29861a1ee9a49fe1dbad6ecb1f1cba2811854035040f721fc911d76f219",
        "complex.txt": "87003f1b1915e4833a2001c3b729df7b3d332d8417c5e4e646204eb8db88e728",
        "feature_map.svg": "72e4ef09d4289e73c25df21e690d4dfe7a536d0aac53d972c68ca7bdf107d77a",
        "field.pgm": "8565d6238ed3fc9705d94c076f6a33ba861bfa706382889867318497f3222130",
        "mask.pgm": "a921cf20f296b47077c5d2524779ee664f0de7efd637eb57c43ad0502828632a",
        "schedule.txt": "5ad213b3dbab63b7e3a6db80893088fda44d254bec39144137babdd7f053ddcc",
    },
    ("grid1", "vr", "red"): {
        "barcode.json": "6871561cb5fff8c67a7eab8dd973da2c74ad86b514b347c3e3d5db5e605f960d",
        "barcode.svg": "199a95c1f414ef58bad85646c1e3ad12cc3ada7621b9831543cc275ec588612b",
        "complex.txt": "4a57a29906697af07fab967273e54422a90ee5c7f7b1c6f1725aefeadc4e4ef8",
        "feature_map.svg": "e7f9b8e7899c71c415fc5aa18b7c99189c7c9a29070b19338f17db7d5c20d6d5",
    },
    ("grid1", "alpha", "red"): {
        "barcode.json": "6871561cb5fff8c67a7eab8dd973da2c74ad86b514b347c3e3d5db5e605f960d",
        "barcode.svg": "199a95c1f414ef58bad85646c1e3ad12cc3ada7621b9831543cc275ec588612b",
        "complex.txt": "4a57a29906697af07fab967273e54422a90ee5c7f7b1c6f1725aefeadc4e4ef8",
        "feature_map.svg": "e7f9b8e7899c71c415fc5aa18b7c99189c7c9a29070b19338f17db7d5c20d6d5",
    },
    ("grid1", "adjacency", "red"): {
        "adjacency.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "barcode.json": "0fb0a6a3a032fcc8fe872657b90f669be2f53d8b13dd273453919720eef355bf",
        "barcode.svg": "c98f9cd407d17684fbbf4c2ef306b29db514ceb554faa8b278635fca4cdbe372",
        "complex.txt": "6bdb8c2f40b58c3203670e5777217a23a5ad4ffc093e6d13c1079ebf0ecc5e11",
        "feature_map.svg": "e7f9b8e7899c71c415fc5aa18b7c99189c7c9a29070b19338f17db7d5c20d6d5",
    },
    ("grid1", "levelset", "red"): {
        "barcode.json": "6871561cb5fff8c67a7eab8dd973da2c74ad86b514b347c3e3d5db5e605f960d",
        "barcode.svg": "199a95c1f414ef58bad85646c1e3ad12cc3ada7621b9831543cc275ec588612b",
        "complex.txt": "eaf69bd2e953e3423f876c0a5ecce7f79ac2bfa4f1fa8792066e73002f658a8a",
        "feature_map.svg": "e7f9b8e7899c71c415fc5aa18b7c99189c7c9a29070b19338f17db7d5c20d6d5",
        "field.pgm": "bfc9f7f769f7ca633657e0e20343c1ec3c8ea71c1b9cd4f03167f1e76c9151e0",
        "mask.pgm": "74254e45ffd44659f7c6f53e031d5f61aa9e952c949232d82370d563680427e2",
        "schedule.txt": "f699b319801f9a3585ac33d1e3565a3473c776247f87a2826205da3b13c304e2",
    },
    ("grid6", "vr", "red"): {
        "barcode.json": "1478f3ad25e026a1bb0f237c9979f71b03a101f81fd15d05ece305f16e30e093",
        "barcode.svg": "91ada251ee58a3200ff2e88e7391d8b23695794a7d94b00bda8a5bd306a97de6",
        "complex.txt": "04d6b8bbc877d14dc30f1c0565b9c281fd0e36d8650bac9fb0099d246c1bd39c",
        "feature_map.svg": "8d7a48bc058fa67de7f91ebf5162942b091618c9c9208de91dd40ed1376673d9",
    },
}


@pytest.fixture(scope="module")
def maps(tmp_path_factory):
    """GeoJSON path per fixture name, written once."""
    root = tmp_path_factory.mktemp("maps")
    paths = {}
    for name, argv in [(f, ["--fixture", f]) for f in ("grid", "annulus", "blobs", "dissent")] + [
        ("grid6", ["--fixture", "grid", "--n", "6"]),
        ("grid1", ["--fixture", "grid", "--n", "1"]),
    ]:
        paths[name] = root / f"{name}.geojson"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["synth", *argv, "--out", str(paths[name])]) == 0
    return paths


EMPTY = "no blue-winning precincts in .*; empty complex"
WARNINGS = {
    **{(f, m, "blue"): EMPTY for f in ("grid", "annulus", "blobs") for m in METHODS},
    ("grid", "levelset", "red"): "mask is entirely true",
    ("grid1", "levelset", "red"): "mask is entirely true",
}
# The flag complexes on 8, 25 and 36 points reduce their triangles by the
# row sweep (more triangles to reduce than edges); every other dimension of
# every build, triangles first, goes through the column loop.
ROW_SWEPT = {(f, "vr", "red") for f in ("dissent", "grid", "grid6")}


@pytest.mark.parametrize("fixture, method, candidate", sorted(DIGESTS))
def test_artifacts_are_byte_identical(maps, tmp_path, monkeypatch, fixture, method, candidate):
    paths = []
    choose = homology._reduction_path

    def record(columns, rows):
        path = choose(columns, rows)
        paths.append(path.__name__)
        return path

    monkeypatch.setattr(homology, "_reduction_path", record)
    out = tmp_path / "out"
    argv = ["build", "--method", method, "--candidate", candidate]
    warning = WARNINGS.get((fixture, method, candidate))
    with (
        pytest.warns(UserWarning, match=warning) if warning else contextlib.nullcontext(),
        contextlib.redirect_stdout(io.StringIO()),
        contextlib.redirect_stderr(io.StringIO()),
    ):
        code = main(argv + ["--input", str(maps[fixture]), "--out", str(out)])
    assert code == 0
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name != "run.json"
    }
    assert got == DIGESTS[fixture, method, candidate]
    triangles = "_reduce_rows" if (fixture, method, candidate) in ROW_SWEPT else "_reduce_columns"
    assert paths == [triangles, "_reduce_columns"]
