"""Golden bytes for text content: the word models' output is a fixed contract.

Every value here was recorded once and must never change: any change to
which words are drawn, in what order, or how they are spelled as bytes moves
a sha256 below.  Each case also records ``rng.random()`` taken right after
the call, which pins how many draws the call consumed — a kernel that
produced the same bytes from a different number of draws would still shift
every later file sharing the generator.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.content.generators import ContentGenerator, ContentPolicy
from repro.content.wordmodel import (
    _LETTER_FREQUENCIES,
    TOP_ENGLISH_WORDS,
    WORD_LENGTH_FREQUENCIES,
    HybridWordModel,
    SingleWordModel,
    WordLengthFrequencyModel,
    WordPopularityModel,
)
from repro.core.config import ImpressionsConfig
from repro.core.impressions import Impressions
from repro.materialize import NullSink, materialize_image

MODELS = {
    "single": SingleWordModel,
    "popularity": WordPopularityModel,
    "length": WordLengthFrequencyModel,
    "hybrid": HybridWordModel,
}
SIZES = (0, 1, 7, 8, 9, 4095, 65_537)
SEEDS = (3, 1009)

#: (model, seed, size) -> (sha256 of the bytes, rng.random() afterwards)
TEXT_GOLDENS: dict[tuple[str, int, int], tuple[str, float]] = {
    ("hybrid", 3, 0): ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0.08564916714362436),
    ("hybrid", 3, 1): ("50e721e49c013f00c62cf59f2163542a9d8df02464efeb615d31051b0fddc326", 0.47130966518183137),
    ("hybrid", 3, 7): ("635cd893e1145d18e095a3e6aa1e5939f2d6e3f189f4d02c03bb86564533e92b", 0.47130966518183137),
    ("hybrid", 3, 8): ("3c1d64cee980ee0bb8be370c4b0789798009c56cf6c41403d00437786684238a", 0.47130966518183137),
    ("hybrid", 3, 9): ("50a8d74e19125d553609756ce2595167089e3d8baaa0b7c2d95ba28e35f18e98", 0.47130966518183137),
    ("hybrid", 3, 4095): ("bb808617bba5ba15b2cc36f34b2ad1e382434839e45f1b1c97e94db2061d5fa3", 0.03160089951834044),
    ("hybrid", 3, 65537): ("e997f03e0e95eb2d37c821b2b00f54ea1599ea9047620a563b3419de59601ba3", 0.33780626392053215),
    ("hybrid", 1009, 0): ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0.05650046205343928),
    ("hybrid", 1009, 1): ("e3b98a4da31a127d4bde6e43033f66ba274cab0eb7eb1c70ec41402bf6273dd8", 0.3978742104817231),
    ("hybrid", 1009, 7): ("3de026c580b7d5af895ef96b09ad389d1e50636982018e715a244a9bb0345a7b", 0.3978742104817231),
    ("hybrid", 1009, 8): ("6b7af7c6b72c3c0cc2185325fe90f20a77ba09af067a45c47f6d1b1fcc5a3853", 0.3978742104817231),
    ("hybrid", 1009, 9): ("1049f029b3f2fa6cc31aeb845a880839cdccb47f8b8afea47284927e2b51c7a7", 0.3978742104817231),
    ("hybrid", 1009, 4095): ("7be2ef53c140bfd108a9b86a49404ff207ce5c41b22cad5e02005c8e6d8ce298", 0.4354947748809328),
    ("hybrid", 1009, 65537): ("8f4f2179a6704baaf572cb3d67af9d704aa37a5f938824f48094ab5ec453dd91", 0.6385405875648825),
    ("length", 3, 0): ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0.08564916714362436),
    ("length", 3, 1): ("18ac3e7343f016890c510e93f935261169d9e3f565436429830faf0934f4f8e4", 0.7417566800693304),
    ("length", 3, 7): ("dc6310ef7dcfa53d1ced44b8592e8958917151209d12d375eaac535d87db32b9", 0.7417566800693304),
    ("length", 3, 8): ("bf40510ae9afe543b32f44d5f707ed30a22d5a0b881a86e1d18140de40c03a1e", 0.7417566800693304),
    ("length", 3, 9): ("63281adcb05c5d9e2ec3cbfef9dd6375ddce4c06d5fc88dcddca7f88dcc01ffe", 0.7417566800693304),
    ("length", 3, 4095): ("4f904fc208e1e6eba52010f51c08f7cac4c985fcd9c14eea622dc4f9ca64d725", 0.7559321551666984),
    ("length", 3, 65537): ("34cb4fdc118e0d4c5e7821d90985baadfb90a77cfb0ba4fb7a1398f4d06f28b5", 0.38367768127450586),
    ("length", 1009, 0): ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0.05650046205343928),
    ("length", 1009, 1): ("3f79bb7b435b05321651daefd374cdc681dc06faa65e374e38337b88ca046dea", 0.5461955048782834),
    ("length", 1009, 7): ("2d7c352e643f19742af1e4c362c6e1966ebf34c411bf211ddf5f5129b2e03d22", 0.5461955048782834),
    ("length", 1009, 8): ("308d5d0f1b8747827dad712eca630e4bab10e5ba70098c48139a03a91546f2df", 0.5461955048782834),
    ("length", 1009, 9): ("d6a77b4a9055eb08795b0e6a4e6e3a99de66899b4cf61346aad02efaa6c8e5f9", 0.5461955048782834),
    ("length", 1009, 4095): ("c6253a809b884c7732bbc48316a3c8d80deb2c02df39385483d14f7b0de11f02", 0.46112195884350005),
    ("length", 1009, 65537): ("ce81840cda3fbf0fdd730973fd3dc385684297b0e94936d11252ee55a181e1ba", 0.9237200185684694),
    ("popularity", 3, 0): ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0.08564916714362436),
    ("popularity", 3, 1): ("e3b98a4da31a127d4bde6e43033f66ba274cab0eb7eb1c70ec41402bf6273dd8", 0.7345771514092145),
    ("popularity", 3, 7): ("550d279892a8cd938ff5d8fe8b5925f567b888daddedf4a517fdc4230ca11caf", 0.7345771514092145),
    ("popularity", 3, 8): ("507003eb87acb60a4d4aa236bc5cfa57d719bb8e566a62b72d6bbdc373bb947f", 0.7345771514092145),
    ("popularity", 3, 9): ("7474017936b6be4e9b67e3fd8c436ee89a92a3e2df55d695209b642cc0540c41", 0.7345771514092145),
    ("popularity", 3, 4095): ("5aba9b2422b53dc94c69ee863317fb034327efe655190a0b123b93d066b50202", 0.5696596418713215),
    ("popularity", 3, 65537): ("893fbeb0e07dc89172641161cc02d3df24c8d315592f67cbc864f43912df0e84", 0.354893631517022),
    ("popularity", 1009, 0): ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0.05650046205343928),
    ("popularity", 1009, 1): ("e3b98a4da31a127d4bde6e43033f66ba274cab0eb7eb1c70ec41402bf6273dd8", 0.028158710412372612),
    ("popularity", 1009, 7): ("c3085fcbfd77fedc91e081261449a00288a07753ece220272c9aafa871387af3", 0.028158710412372612),
    ("popularity", 1009, 8): ("651508a29ad89fc2e91bfcf072169c16bfc8d236903c91bb37631d6d4927c4b4", 0.028158710412372612),
    ("popularity", 1009, 9): ("e461c043c0a7ef34187ddd308fd91ca5c734a6d564499c1c081e0813b53e4677", 0.028158710412372612),
    ("popularity", 1009, 4095): ("cc3aa090b4e784d96d130b618f4c2fcf8ec4d96276c66f750959ef3dd76f55ed", 0.6020445228883611),
    ("popularity", 1009, 65537): ("b70e063248c8cd6379f6811096de8a81574e622750d893008ab2695271a82474", 0.8522986368781159),
    ("single", 3, 0): ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0.08564916714362436),
    ("single", 3, 1): ("de7d1b721a1e0632b7cf04edf5032c8ecffa9f9a08492152b926f1a5a7e765d7", 0.08564916714362436),
    ("single", 3, 7): ("b87169a483e64f360504bedf3dfa2d4fbb6ec1759768b48299a3ef249a8e8922", 0.08564916714362436),
    ("single", 3, 8): ("051ce52b2812a75fa396435b59db065487cc25feaf1405fa2248f982c675eff4", 0.08564916714362436),
    ("single", 3, 9): ("5980c20ec8b3124367e15e4d400ce0bfc0ed69c7711803efceb179972d21a5fc", 0.08564916714362436),
    ("single", 3, 4095): ("a6debbc72bea01df0baebec3efd43bcfd656c98bf0891ca0ec0e81eb2f2486c3", 0.08564916714362436),
    ("single", 3, 65537): ("a1f6d2b434d808a361b3dbda8bc811b8816bd952c4171b97958cde1bf9938fbd", 0.08564916714362436),
    ("single", 1009, 0): ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0.05650046205343928),
    ("single", 1009, 1): ("de7d1b721a1e0632b7cf04edf5032c8ecffa9f9a08492152b926f1a5a7e765d7", 0.05650046205343928),
    ("single", 1009, 7): ("b87169a483e64f360504bedf3dfa2d4fbb6ec1759768b48299a3ef249a8e8922", 0.05650046205343928),
    ("single", 1009, 8): ("051ce52b2812a75fa396435b59db065487cc25feaf1405fa2248f982c675eff4", 0.05650046205343928),
    ("single", 1009, 9): ("5980c20ec8b3124367e15e4d400ce0bfc0ed69c7711803efceb179972d21a5fc", 0.05650046205343928),
    ("single", 1009, 4095): ("a6debbc72bea01df0baebec3efd43bcfd656c98bf0891ca0ec0e81eb2f2486c3", 0.05650046205343928),
    ("single", 1009, 65537): ("a1f6d2b434d808a361b3dbda8bc811b8816bd952c4171b97958cde1bf9938fbd", 0.05650046205343928),
}

#: Non-ASCII vocabularies: one ``?`` per non-ASCII character, sizes exact.
NON_ASCII_GOLDENS: dict[tuple[str, int], tuple[str, float]] = {
    ("popularity-accents", 5): ("11adff73f1cf4bb1b3fac7a916e6f0b71118cb8eaa04e2112665c3f62391de2b", 0.7363858705132865),
    ("popularity-accents", 9): ("c85e799a68fa5d51361eff7f4bb2f0c41176af160bb36fbc0667cde0e02ce824", 0.7363858705132865),
    ("popularity-accents", 4095): ("4a415574cf7d59b8c3e07b45f31bd427067d270ef7f68305ceb366f6ff1db587", 0.5713293452216907),
    ("single-cafe", 5): ("67c81787f4cb3cefebd1b7e2064653e46e583eed332601a6f834ef098ca533ad", 0.8450747927979015),
    ("single-cafe", 9): ("df95831b168cf8125dbcd5390a144220210cdcf6348763d0dbd562578d3558b9", 0.8450747927979015),
    ("single-cafe", 4095): ("3d4aed04a0c70155dc09fb0cece80ecaba299e2c31eb2cd23bb41f7019775345", 0.8450747927979015),
}

#: A 2.5 MiB text file streamed as three chunks off one generator.
CHUNKED_GOLDEN: tuple[tuple[str, str, str], str, float] = (
    (
        "7435778cb9b538827fe43c58f6483d9502c599cfa46f5d5da264249352c3efdc",
        "19520875824bec303a8202361eece3b5fb1da65d0e4b7239a973c30ed0e1bab0",
        "7c9bb2b170ccf1b3d2fe1d4ed57ea8d7c1f3c9a3aa60468dd1718de62b207594",
    ),
    "b3600fee91bf06cdbcc4a875ae4b84edd868facba7c983e86735bb9b5b6f6c95",
    0.8261510494946246,
)

#: NullSink content digests of two ~4 MB hybrid images, each holding one file
#: over the 1 MiB streaming chunk.
IMAGE_DIGESTS: dict[str, str] = {
    "mixed": "ae0eca89977d4a13831d79ac97352b8922ec4d13d16da9e1e8414407d4367a6a",
    "text": "a980b1ca4aa24ea871741ee33c05cef54c8d2dd8a10bd62d619031d3b6790ff9",
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def non_ascii_models():
    return {
        "single-cafe": SingleWordModel("café"),
        "popularity-accents": WordPopularityModel(
            [("the", 5.0), ("café", 2.0), ("naïve", 1.5), ("über", 1.0), ("of", 3.0)]
        ),
    }


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("size", SIZES)
def test_text_bytes_golden(name, seed, size):
    rng = np.random.default_rng(seed)
    data = MODELS[name]().text_bytes(rng, size)
    assert len(data) == size
    assert (sha(data), rng.random()) == TEXT_GOLDENS[(name, seed, size)]
    assert MODELS[name]().text(np.random.default_rng(seed), size) == data.decode("ascii")


@pytest.mark.parametrize("name", sorted(non_ascii_models()))
@pytest.mark.parametrize("size", (5, 9, 4095))
def test_non_ascii_vocabulary_golden(name, size):
    rng = np.random.default_rng(17)
    data = non_ascii_models()[name].text_bytes(rng, size)
    assert len(data) == size
    assert (sha(data), rng.random()) == NON_ASCII_GOLDENS[(name, size)]


def test_streamed_text_file_golden():
    size = (5 << 20) // 2
    rng = np.random.default_rng(2024)
    chunks = list(ContentGenerator(ContentPolicy()).iter_chunks(size, ".txt", rng))
    assert [len(chunk) for chunk in chunks] == [1 << 20, 1 << 20, size - (2 << 20)]
    assert (tuple(sha(chunk) for chunk in chunks), sha(b"".join(chunks)), rng.random()) == (
        CHUNKED_GOLDEN
    )


def _image_digest(force_kind: str | None) -> str:
    config = ImpressionsConfig(
        fs_size_bytes=1024 * 1024,
        num_files=40,
        num_directories=8,
        seed=1,
        generate_content=True,
        content=ContentPolicy(text_model="hybrid", force_kind=force_kind),
    )
    return materialize_image(Impressions(config).generate(), NullSink()).content_digest


@pytest.mark.parametrize("kinds", ["mixed", "text"])
def test_image_content_digest_golden(kinds):
    assert _image_digest(None if kinds == "mixed" else kinds) == IMAGE_DIGESTS[kinds]


# The per-word string implementation the byte kernel replaced, kept as the
# reference: one ``Generator.choice`` per table and one ``str`` per word.


def _choice_table(table):
    values, weights = zip(*table)
    weights = np.asarray(weights, dtype=float)
    return np.asarray(values), weights / weights.sum()


def reference_popularity(rng, count):
    words, p = _choice_table(TOP_ENGLISH_WORDS)
    return [str(words[i]) for i in rng.choice(len(words), size=count, p=p)]


def reference_length(rng, count):
    lengths, length_p = _choice_table(WORD_LENGTH_FREQUENCIES)
    letters, letter_p = _choice_table(_LETTER_FREQUENCIES)
    drawn = rng.choice(lengths, size=count, p=length_p)
    pool = rng.choice(letters, size=int(drawn.sum()), p=letter_p)
    out, cursor = [], 0
    for length in drawn:
        out.append("".join(pool[cursor : cursor + int(length)]))
        cursor += int(length)
    return out


def reference_hybrid(fraction):
    def words(rng, count):
        if count == 0:
            return []
        flags = rng.random(count) < fraction
        popular = iter(reference_popularity(rng, int(flags.sum())))
        rare = iter(reference_length(rng, count - int(flags.sum())))
        return [next(popular) if flag else next(rare) for flag in flags]

    return words


def reference_text(words, rng, num_bytes):
    if num_bytes == 0:
        return ""
    pieces, generated = [], 0
    while generated < num_bytes:
        for word in words(rng, max(8, (num_bytes - generated) // 6)):
            pieces.append(word)
            generated += len(word) + 1
            if generated >= num_bytes:
                break
    return " ".join(pieces).ljust(num_bytes)[:num_bytes]


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["popularity", "length", "hybrid"]),
    fraction=st.sampled_from([0.0, 0.3, 0.8, 1.0]),
    size=st.integers(0, 20_000),
    seed=st.integers(0, 2**32 - 1),
)
def test_text_bytes_equal_the_per_word_reference(kind, fraction, size, seed):
    model, words = {
        "popularity": (WordPopularityModel(), reference_popularity),
        "length": (WordLengthFrequencyModel(), reference_length),
        "hybrid": (HybridWordModel(popular_fraction=fraction), reference_hybrid(fraction)),
    }[kind]
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    assert model.text_bytes(ours, size) == reference_text(words, theirs, size).encode("ascii")
    assert ours.bit_generator.state == theirs.bit_generator.state
