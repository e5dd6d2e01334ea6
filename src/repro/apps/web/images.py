"""Web images and the distillation size model (paper §5.2, §6.2.2).

"The cellophane could choose one of four levels of fidelity: original
quality or JPEG compression at quality levels 50, 25, or 5.  The fidelity of
each of these levels is 1.0, 0.5, 0.25, and 0.05 respectively."

The benchmark image is 22 KB (the paper's test image).  Distilled sizes are
calibrated from the paper's Fig. 11 latencies: the gap between a level's
fetch time at 40 vs 120 KB/s pins its transfer size.
"""

import hashlib
from dataclasses import dataclass

from repro.errors import ReproError

#: Image fidelity -> (JPEG quality, distilled size as a fraction of the
#: original).  Fraction 1.0 means the original, uncompressed bytes.
FIDELITY_LEVELS = {
    1.00: ("original", 1.000),
    0.50: ("jpeg-50", 0.182),
    0.25: ("jpeg-25", 0.114),
    0.05: ("jpeg-5", 0.057),
}

#: The paper's benchmark image size, bytes (§6.2.2: "a 22KB image").
BENCHMARK_IMAGE_BYTES = 22 * 1024


def distilled_bytes(original_bytes, fidelity):
    """Size of ``original_bytes`` distilled to ``fidelity``."""
    try:
        _, fraction = FIDELITY_LEVELS[fidelity]
    except KeyError:
        known = sorted(FIDELITY_LEVELS)
        raise ReproError(f"unknown fidelity {fidelity!r}; "
                         f"known: {known}") from None
    return max(int(original_bytes * fraction), 256)


@dataclass(frozen=True)
class WebImage:
    """One image on a web server."""

    name: str
    nbytes: int

    def __post_init__(self):
        if self.nbytes <= 0:
            raise ReproError(f"image size must be positive, got {self.nbytes!r}")


class ImageStore:
    """A web server's image corpus."""

    def __init__(self):
        self._images = {}

    def add(self, image):
        if image.name in self._images:
            raise ReproError(f"image {image.name!r} already in store")
        self._images[image.name] = image
        return image

    def add_benchmark_image(self, name="test.gif"):
        """The paper's 22 KB benchmark image."""
        return self.add(WebImage(name, BENCHMARK_IMAGE_BYTES))

    def add_synthetic_corpus(self, count, seed=0, min_bytes=4 * 1024,
                             max_bytes=80 * 1024, prefix="img"):
        """A deterministic corpus with varied sizes (for realistic browsing).

        Sizes derive from a hash of (seed, index); no RNG state involved.
        """
        if count <= 0:
            raise ReproError(f"count must be positive, got {count!r}")
        span = max_bytes - min_bytes
        created = []
        for i in range(count):
            digest = hashlib.blake2b(
                f"{seed}:{i}".encode("utf-8"), digest_size=4
            ).digest()
            size = min_bytes + int.from_bytes(digest, "big") % max(span, 1)
            created.append(self.add(WebImage(f"{prefix}{i}.gif", size)))
        return created

    def get(self, name):
        image = self._images.get(name)
        if image is None:
            raise ReproError(f"no such image {name!r}")
        return image

    def names(self):
        return sorted(self._images)

    def __len__(self):
        return len(self._images)
