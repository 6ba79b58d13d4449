"""Exception hierarchy shared across the package.

The three base classes map onto the CLI exit codes: InputError -> 2,
TrainingError -> 3, QueryError -> 4.
"""


class DishrecError(Exception):
    pass


class InputError(DishrecError):
    pass


class TrainingError(DishrecError):
    pass


class QueryError(DishrecError):
    pass


class MalformedRecord(InputError):
    def __init__(self, line_number, reason):
        self.line_number = line_number
        self.reason = reason
        super().__init__(f"line {line_number}: {reason}")


class DuplicateId(InputError):
    pass


class InvalidConfig(InputError):
    pass


class ModelFormatError(InputError):
    pass


class EmptyVocabulary(TrainingError):
    pass


class SingleClassCorpus(TrainingError):
    pass


class DivergenceDetected(TrainingError):
    pass


class EmptyGraph(TrainingError):
    pass


class ModularityDecreased(TrainingError):
    pass


class EmptyCorpus(TrainingError):
    pass


class UnknownUser(QueryError):
    pass


class UnknownColumn(QueryError):
    pass


class UnknownItem(QueryError):
    pass


class FeatureIndexOutOfRange(DishrecError):
    pass


class IndexOutOfVocabulary(DishrecError):
    pass


class UndefinedMetric(DishrecError):
    pass
