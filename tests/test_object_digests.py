"""Byte-identity pin of the cold parse → compile → disassemble path.

For each corpus program at O0-O3 this pins the SHA-256 of the object file
``compile_tu(...).to_bytes()`` and of the ``AnalysisResult`` document
without ``stage_timings`` (``json.dumps(doc, sort_keys=True)``).  A change
to tokens, operands, compiler passes or the encoder that moves one byte of
an object or one field of a result fails here.

The digests were taken before those layers were made allocation-light.
The object digests of the five programs with string literals (dgemm,
lucas, mg3d, minife, stream) were taken with one fix applied first: a
string literal's ``.rodata`` word came from the per-process salted
``hash()``, so those objects differed from run to run; it now comes from
``zlib.crc32``.
"""

import hashlib
import json

import pytest

from repro.compiler.driver import compile_tu
from repro.core.config import AnalysisConfig
from repro.core.pipeline import Pipeline
from repro.frontend.parser import parse_source
from repro.workloads import available, source_path

# "<program>:O<level>": (object-bytes digest, result-document digest)
DIGESTS = {
    "adm:O0": (
        "3022e1e863c5b58d03395e808ee398c7d2ffd9402f16d101e5b7126e87d3b955",
        "64f629a2091833cde9f837e06ad5f108f939af93e018e7d677c088c737f31659"),
    "adm:O1": (
        "dc120b61a3fb99f0099630f566e5e76897d2d739b3ed94fc66b9c9b4f81b31c4",
        "0280ba8076cb33fea9a23d801953f2cb1890c7f821cd54b73fb8f973046e9b45"),
    "adm:O2": (
        "0efdbc018cfdf6588b2e2cbfc708a90324dd7560ba955f6e3c31743a9e81c2c9",
        "156d46e7f6f212c6fa74f97739a982760fc02261a8590b2fe13fc81f6b929d74"),
    "adm:O3": (
        "7a03e12f60e2527326152363eb9adff5f6f734259b0e971644ebae4f919c4abc",
        "a9fcc1de0d14b6fe438fab6d13137d865e2b15456668610d42b3db3baef4e52f"),
    "applu:O0": (
        "a65844ce0c2e02696ecce8fa8cc9befc1f5ec828f6e9446f9f95584ce23cf649",
        "ae93e6dbbca3481c898c4edc6b29f2e07343cc98321f58266dfed4c1fa08eaab"),
    "applu:O1": (
        "934892f13246f6fe8339a505a21f79c62ad90589ab64cf726f22caba29e709b9",
        "a8a6a4af57db32291d22d0517131c33571c2142c516a0d64109cd8e9b32a696d"),
    "applu:O2": (
        "ec309c4859941c406995e6c9ddbea7c38b5a6aaa9c8fc2b4785d14c4eebafa9e",
        "84e863f67d60b8f1c992ac567f6a8d64b4d7acd0ce10832ba52ad894d9f38a67"),
    "applu:O3": (
        "ec309c4859941c406995e6c9ddbea7c38b5a6aaa9c8fc2b4785d14c4eebafa9e",
        "00dfaa20b7761295bcc580c7736a22ecfb8d5bb39413d2bb4fa9f614c582054f"),
    "apsi:O0": (
        "6526535c3c97d07f1a4ae8b3471cb1715084cb4d0f9445f1e87dccb58cb2c567",
        "a756c0fd55726976cc82fde3998a909bd2a87cc8900bdaaa1e8153131c974a47"),
    "apsi:O1": (
        "5ac7b39a26e691add545bfb66b8deb2ead5856fad06a9d07936460fe1e979811",
        "0371b0d14493ebea18940aa34459b566f7bafb6eadd0d5aade98b92680675875"),
    "apsi:O2": (
        "30c03fa3344405006a63cbab9923999970a5350a7d25c020469daa23751060d4",
        "a83a854a6c901abb0334f6ee79b87693e0b19a1c190f78e63875e4c4a48376f7"),
    "apsi:O3": (
        "bb558300e70f70a06828582d929563df62a7c182856098ea4aada0b30493a2cb",
        "652225862539c1ed019191f5295a12fd49682c504b24389f3f479960cffd99be"),
    "dgemm:O0": (
        "be196391c1aefbe00b405757c4fa90e47dffa30c6202d7e26fae4e3ad5d45108",
        "fb2c0ed9757aefcb689a65e168ce145b0279392b5b00bae9504ff2c94fe96112"),
    "dgemm:O1": (
        "dd116057f59b8c750f4b996f8bb928589ef82a859a29423122df4668f347a51f",
        "881ade418795457d976f0bddbbfc0e1fac7b7823a0e55e3f1dd5b8c8a37ce872"),
    "dgemm:O2": (
        "bdfc7f9042856ce9d58ebeaae381d5ba217d5a6d59413a452891271e9571b955",
        "0b270ed82d675f09de72909c54779bfc1522239574a2d0998663713c5bc617a0"),
    "dgemm:O3": (
        "bdfc7f9042856ce9d58ebeaae381d5ba217d5a6d59413a452891271e9571b955",
        "4dec572049b5c67490fdcb90284b386a274c8ea6d079baa3eae3e77c9b453d68"),
    "dyfesm:O0": (
        "a06010f3d0928fd1d87fc6b2a42ad31b416c2149af79e28b7f58ab16fc62fae4",
        "07b6ce67bd824b38ba6e07c975d5f1b7c60fee8f507de0b7f38c1a68b29ca2f6"),
    "dyfesm:O1": (
        "c3e56a21ef54270ccb4045eead2de26459443ccae78cf294a967ec73e124417e",
        "9d2244e21027d184526173676477c69fa4797e3d8e9bfb587d87fff73d25a6f0"),
    "dyfesm:O2": (
        "e011734e9e4031d360ae47aa4d61c93eb37a3a2e3483e9920e091de5bf6c60b3",
        "109b69ec42a43fd168f041daf0abf99e040361337e268c584e2bfbd9a8fa370a"),
    "dyfesm:O3": (
        "321bcbc7b687bf4c5f2bf844db226c51ce82333a2212bdd822db6c7c89e97e8e",
        "1b50b8a51351cad9839d8b87faadcafe7e4eda364e56e171cc0ff4d12ef996a8"),
    "fig5:O0": (
        "7f1bbadbd74710c3789f268f6f2b6de7c5839302bbf3ff07dc0951ce55b14196",
        "99a2c60f2873249869e748c5f3e8d87c66fe3173cb0ebe84744019cfdb771f8f"),
    "fig5:O1": (
        "c3b624c5db75c07990862a289a2fb7e9afa514bd7794d34978e8ed3f26cc06d2",
        "3834e161c3945901980de1a3c3bd333fe0010440f16691de57da0c447194cb5a"),
    "fig5:O2": (
        "0ede986bf4b1df059edc8af063043a9af00b0b9791f518faa94725a6fc66ec5a",
        "220974ef36f92f27d8849cbc20cdac54ab9ddea02ad4040e5f5a485c319628a0"),
    "fig5:O3": (
        "68504c54db9c45e600ade99e9332f3a0393600de60074a06dbad464b21157628",
        "3477fc10fdcbb532cd5a76e74bb31afedd61f49b441803c2c1231303ae5cb20e"),
    "listings:O0": (
        "8265193f54881cbc494707abf9d08de699b815f4f40569286bf0db4deb0491a8",
        "5768dac4d762d5d875e0050b57be6e5ffbc093f42bd51d2fde4cecb9bc0b3264"),
    "listings:O1": (
        "5952c1c128814580372f66380538fd8c992ddfea179d6b03f24b2c288ce12298",
        "c7a6ae2d65f495f9f80a4249738158d373cdbb0cd34905617e44fc038a9a388c"),
    "listings:O2": (
        "3716d73aa653aae35a1bafa70d4d58de1fb4c6d2cec8c0f452fdc122c4402830",
        "aa80c5ba5afbb640f6d1b578f8379ecc75d299b2ad2ad9030391dfa1a01a895f"),
    "listings:O3": (
        "3716d73aa653aae35a1bafa70d4d58de1fb4c6d2cec8c0f452fdc122c4402830",
        "9565ca34b19dbd2d875223b2d73cc00748b8294560d226371fe6929da92bf734"),
    "lucas:O0": (
        "0e8ab86585f09a23190ea4bb5c6273dc70bff1ba0cda01334cfe69d5c5de47a3",
        "56e3d5c1f70113a2705acad4620dd89c6581477049aceff2bbea86198b6b6bd1"),
    "lucas:O1": (
        "25136ace581578be4b3ece0c72fa63b851a6698a0bd60d8039cc2131e560b170",
        "859151cd0efa84335b99954de5d94429c6a5c3b4abf076b1fa4a3407fff3fb94"),
    "lucas:O2": (
        "9f7534be84b423bbb4a9f7a0790a683e7db4629b0ff4c08bd04622e3aeeb425b",
        "a5c06e6c3265097aeb8d2308db8a6c409400eb56d74b05cc3d74df46c1b0f7ef"),
    "lucas:O3": (
        "de3b2a192b80d1b782611d70436332881f361770d6099f7dd2dd31d8c4d2729c",
        "471e2a766b5f7e71c9e7de75154f79eba6850781719640174ae74b691a3c5b5f"),
    "mdg:O0": (
        "444ecb072e66d3dc09a88589a306056f9f7da0003bb3968b391046ce6072897c",
        "8e0f2325d9dad0e95037318d0916ce412b8460579213a548127443ea07c18217"),
    "mdg:O1": (
        "7e11a28765b480d30a6bbe6439e04605a98a3bde7294f5641e5c8bcb67d7805f",
        "c3869065ffdd96b05dbf94ecfe31c8dffde2982456d976aafd95e3d620871495"),
    "mdg:O2": (
        "bf522b3fc35a5ece890c4dee3b9b781d3e01aa242a78aff9505173795eedcd7c",
        "af3a7e3089e824b0716859022d4d554f72282b22f6dce386a6b152ca3b24858d"),
    "mdg:O3": (
        "53632d06db5226cbd5f288535d7d5af699bf2ab6e13e5a196c706d55b751e0dc",
        "f44ce436295f4a22edcfd2916533f7578f06026d70375867663b8cc890a4c442"),
    "mg3d:O0": (
        "314ef98cd43240e1aa2efe47dda9e6851abc0d4f4d9c748c84fe6cecb5fa42ad",
        "9853f89fe9b824f4ba0b5dcef9a09b09d92953f41a06f69e366d0ebbbadc3cb0"),
    "mg3d:O1": (
        "5dd2cdb8ea78336198427c847e29701c0d1370cfa949a6f0da605fabc7ce36ea",
        "90488a741eb13ab88b481eab664461015d31bc0e6f52adf834c35192d1cd1f7a"),
    "mg3d:O2": (
        "572aec1e328c599d358c1894731ae10f57d36d4967c819ccab7fac5b27027e4b",
        "522965a5b7be6808e24e87a9f6e75271f98b49dc26c1fde7f77bb299332518ab"),
    "mg3d:O3": (
        "a52de6bda622a7e9810fc635124dd4e886e2550b5d035ed6004964bdf5a042e9",
        "bbecc3bbdad2ccaccc68e8cdc54fd0ec476fffde51da1edc5d43e949f357df40"),
    "mgrid:O0": (
        "d5c966e3d6d545b8afe17d714ebd62ad8cb22d5862a68263534db824afcc9cec",
        "357f3c218c426462f4d4fa290ce19d306915692b0e3aef318a0adf3efe00c10e"),
    "mgrid:O1": (
        "8afdc906bbfb45a4b93f008078f621fa25bfb312944cb5ab99981cea2e7bd5ab",
        "54f0bda84b6a106de345f80b5bb005e80bd4bc5920192793003095165fd7dfac"),
    "mgrid:O2": (
        "a0c2f1fb2ea00d5c98a6868d188da6b747d2f9a7b46abad74c50118a99c1ef08",
        "4f46c667b6bf8378a4d18baccc2f06671a69a804f589a7ac14be52842c0fd086"),
    "mgrid:O3": (
        "a0c2f1fb2ea00d5c98a6868d188da6b747d2f9a7b46abad74c50118a99c1ef08",
        "d0d849dcb6b3139ab0bb292ab74b08297fca44047225eaff36d387549b960ea2"),
    "minife:O0": (
        "b519f23742a6fda8cc221772f9fb9c1d4b7367e99d9d1fa485ba8ee75f9624eb",
        "bb5d4c63525384556c98e72c32c063d253069063808d40974e12c9d765c713b7"),
    "minife:O1": (
        "d1eba7c8760756019e445ccfd02a62a9e7adabfd3269d2863ec1b046d0bfacbc",
        "01ce166e80618ae179bc603812de5058e13804114591dca7fe38b39468efb821"),
    "minife:O2": (
        "823caaf26e4627a2e50589f037a92dd6424f26227238470982512329880f1cb9",
        "ec7a1594afddf2ab75257b2ae35cb1d49112a48db6c2bda671cd11124c98d31c"),
    "minife:O3": (
        "dfcb0cf6bb5c085c2695a6c59834eff52f7f12bfb1464c6538f38ac2096b6341",
        "ed06c765abebd7a4f72e4e1a3b391ff6f108363a3faf11d80d12c7c4f31e1771"),
    "quake:O0": (
        "9e6916f33610d01027caedeebdab405f9881aac84c3e9744c0f28d342ac58f67",
        "de055ec420ccb70f40cf4ac4e4930eee07c8c657affe24df3935a3a01a5510c2"),
    "quake:O1": (
        "4faad83a4cb689270663ed81e3a62ad1e1764081aafbca7f345f7be657f6de1e",
        "327813c555c47fa9cb54f9163a5568bfcc783d5d11764e4762311755d439a499"),
    "quake:O2": (
        "5e3591d5a844e742b7219f9e591c3bf2e7329fa744451d579aa5ee03a1eba062",
        "664a3bf8b866d155ef1394474e1af2def2c1eecb4fafa4ac003676d8d3948f57"),
    "quake:O3": (
        "5e3591d5a844e742b7219f9e591c3bf2e7329fa744451d579aa5ee03a1eba062",
        "fde820b4f25a0353d7074342a587213c447544bc8fb5497fdf5a31041fb446b3"),
    "stream:O0": (
        "04da37373379b94f6547f415afc1313a799d410b30168cee7693e30af40a65a2",
        "6049b1cc3f38f80fd8d562627d23d5ccd8dfa6eaf22d907ca2c878eb3d4bbee3"),
    "stream:O1": (
        "f807960d871880806ce23e65973f911f2fccae6125a39edbfa84994df1fbc361",
        "347e9249dd1e9ede42f95fd328e95b9135becfbc4504f667d3c140dbe44bdc0a"),
    "stream:O2": (
        "be68f12a4a6a5691a12c07d00e17d91d034685e8859577144b689b4e3a6fe2da",
        "465cc45d91c6b6703855287b0861810ec0b105e201c0c0cdf04e5b1efe7beaac"),
    "stream:O3": (
        "663e6191abd95152a49a17ba0bb38bf18e8a37c8ed4a4ef8317a9fe3b1f60864",
        "5ee64f39bf48987f9767b08032f96d6c1ac337ee3836870f996722f3955b630b"),
    "swim:O0": (
        "20bc11b16f913fad9bd18e79b940c00b0584610dbf75b75dc938b2504122fb9e",
        "9920ad00b8e91b16da0bd345509240d7f25fc29454daf14430e1da9085722d58"),
    "swim:O1": (
        "032c6bb4009404cdf8158915ea08daa874a70001127df22d93a2c66f9c79588e",
        "06043ed17f5175aafccfc18a30b83c5c2824733dfc2df1cf9dd11886cd84514f"),
    "swim:O2": (
        "b90d445b15c80940c93ebdea571d3e13e4f0ed65abb447b7b3ea79966a7c9465",
        "faa5170551cebb148f09efd0ae4cda992105d47277e414af2f59ac548b1b8599"),
    "swim:O3": (
        "b90d445b15c80940c93ebdea571d3e13e4f0ed65abb447b7b3ea79966a7c9465",
        "ab082a48c1a4057d5d625fb4d1d6c24269fc84529920edc857fc774245265b87"),
}


def test_every_corpus_program_is_pinned():
    assert {k.split(":")[0] for k in DIGESTS} == set(available())


@pytest.mark.parametrize("name", sorted(available()))
def test_object_bytes_and_documents_are_unchanged(name):
    with open(source_path(name), encoding="utf-8") as fh:
        source = fh.read()
    for level in range(4):
        config = AnalysisConfig(opt_level=level)
        tu = parse_source(source, filename=f"{name}.c",
                          predefined=config.merged_predefines(None))
        obj = compile_tu(tu, opt_level=level).to_bytes()
        doc = Pipeline(config).run(source, filename=f"{name}.c").to_dict()
        del doc["stage_timings"]
        text = json.dumps(doc, sort_keys=True).encode()
        digests = (hashlib.sha256(obj).hexdigest(),
                   hashlib.sha256(text).hexdigest())
        assert digests == DIGESTS[f"{name}:O{level}"], level
