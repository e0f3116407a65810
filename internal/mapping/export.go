package mapping

import "streammap/internal/artifact"

// Export returns the assignment's wire form: the placement, the method that
// chose it and its objective. The per-GPU and per-link loads are not on the
// wire; a decoder re-runs Evaluate on the placement and holds the result to
// the objective.
func (a *Assignment) Export() artifact.Assignment {
	return artifact.Assignment{
		GPUOf:     append([]int(nil), a.GPUOf...),
		Method:    a.Method,
		Objective: a.Objective,
	}
}
