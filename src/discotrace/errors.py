"""Exception types shared across the toolkit."""


class DiscoTraceError(Exception):
    """Base class for all toolkit errors."""


# --- RST tree deserialization ---

class MalformedDocument(DiscoTraceError):
    """Tree document is not syntactically valid against the JSON schema."""


class UnknownRelation(DiscoTraceError):
    """Relation label outside the 18-relation vocabulary."""


class UnknownNuclearity(DiscoTraceError):
    """Nuclearity label outside {NN, NS, SN}."""


class NonBinaryNode(DiscoTraceError):
    """Internal node without exactly two children."""


# --- Ontology ---

class DuplicateActId(DiscoTraceError):
    pass


class UnknownFamily(DiscoTraceError):
    pass


class MissingNoneSentinel(DiscoTraceError):
    pass


class UnknownActId(DiscoTraceError):
    pass


# --- Gateway / prompt parsing ---

class EmptySegment(DiscoTraceError):
    pass


class UnparsableResponse(DiscoTraceError):
    """Model output could not be parsed into the expected structure."""


class InvalidActId(UnparsableResponse):
    pass


class IndexOutOfRange(UnparsableResponse):
    pass


class MixedForm(UnparsableResponse):
    """Response mixes whole-segment and per-subsegment assignment forms."""


class UnknownInterpretationId(UnparsableResponse):
    pass


class TransportError(DiscoTraceError):
    """Live backend unreachable after exhausting retries."""


class AuthError(DiscoTraceError):
    pass


class FixtureMiss(DiscoTraceError):
    """Mock backend has no recorded response for this request digest.

    Carries the missing digest (and, when available, the request itself)
    so test harnesses can record a response and replay.
    """

    def __init__(self, digest, request=None):
        super().__init__(f"no fixture entry for request digest {digest}")
        self.digest = digest
        self.request = request


class EmbeddingDimensionMismatch(TransportError):
    """An embedding reply that is not one number vector per text, all of one length.
    Only ``gateway.embed`` raises it; it is a backend failure, as a chat reply without
    text is."""


# --- Statistics ---

class EmptyCorpus(DiscoTraceError):
    pass


class ZeroProbabilityTransition(DiscoTraceError):
    """An evaluation transition has probability zero under an MLE model."""

    def __init__(self, prev, nxt):
        super().__init__(f"zero-probability transition {prev!r} -> {nxt!r}")
        self.prev = prev
        self.next = nxt


class LengthMismatch(DiscoTraceError):
    pass


class UnknownSpaceReference(DiscoTraceError):
    pass


class QuestionMismatch(DiscoTraceError):
    pass


# --- Corpus I/O ---

class UnknownCommunity(DiscoTraceError):
    pass


class InsufficientPosts(DiscoTraceError):
    pass


class MalformedLine(DiscoTraceError):
    def __init__(self, line_number, message):
        super().__init__(message)
        self.line_number = line_number


class SchemaVersionMismatch(MalformedLine):
    pass
