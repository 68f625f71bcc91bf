package instrument

// This file is the static-analysis side of guided fuzzing: helpers
// that project interprocedural facts (package analysis/interproc) onto
// the coverage map's index space. Nothing here changes instrumentation
// semantics — consumers are strictly opt-in (fuzz.Options.AnalysisGuide).

// PathCellIndex returns the coverage-map cell that a completed
// Ball-Larus path ID of function fnID lands in under the path feedback,
// replicating the tracer's mixing formula and Map.Add's index masking
// (the bytecode lowering uses the same formula, so the three agree).
// mapSize must be the campaign's power-of-two map size.
func PathCellIndex(c Config, fnID int, pathID uint64, mapSize int) uint32 {
	mask := uint32(mapSize - 1)
	salt := fnSalt(fnID)
	if c.Mix == MixHash {
		return uint32(splitmix64(pathID^(uint64(salt)<<32))) & mask
	}
	return (uint32(pathID) ^ salt) & mask
}
