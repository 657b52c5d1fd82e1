package analysis

// The equivalence gates are in package analysis_test, because they
// import analysistest, which imports this package. These names give
// them the corpus helpers.

type EquivFrame = equivFrame

var (
	EquivCorpus   = equivCorpus
	HostileMutate = hostileMutate
)
