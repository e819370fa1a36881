package nn

import (
	"math"

	"tgopt/internal/tensor"
)

// Adam implements the Adam optimizer (Kingma & Ba) over a fixed set of
// parameter tensors with externally supplied gradients, as used by the
// link-prediction trainer. State tensors are allocated lazily per
// parameter.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Eps     float64
	Decay   float64 // L2 weight decay (coupled, PyTorch-style)
	step    int
	m, v    []*tensor.Tensor
	params  []*tensor.Tensor
	indexed map[*tensor.Tensor]int
}

// NewAdam creates an optimizer over params with the standard defaults
// (β1=0.9, β2=0.999, ε=1e-8) and the given learning rate.
func NewAdam(params []*tensor.Tensor, lr float64) *Adam {
	a := &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		params:  params,
		m:       make([]*tensor.Tensor, len(params)),
		v:       make([]*tensor.Tensor, len(params)),
		indexed: make(map[*tensor.Tensor]int, len(params)),
	}
	for i, p := range params {
		a.m[i] = tensor.New(p.Shape()...)
		a.v[i] = tensor.New(p.Shape()...)
		a.indexed[p] = i
	}
	return a
}

// Step applies one Adam update. grads[i] is the gradient for params[i]
// and must have the same element count; a nil gradient skips that
// parameter.
func (a *Adam) Step(grads []*tensor.Tensor) {
	a.step++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for i, p := range a.params {
		g := grads[i]
		if g == nil {
			continue
		}
		pd, gd := p.Data(), g.Data()
		md, vd := a.m[i].Data(), a.v[i].Data()
		for j := range pd {
			gj := float64(gd[j])
			if a.Decay != 0 {
				gj += a.Decay * float64(pd[j])
			}
			mj := a.Beta1*float64(md[j]) + (1-a.Beta1)*gj
			vj := a.Beta2*float64(vd[j]) + (1-a.Beta2)*gj*gj
			md[j], vd[j] = float32(mj), float32(vj)
			mhat := mj / bc1
			vhat := vj / bc2
			pd[j] -= float32(a.LR * mhat / (math.Sqrt(vhat) + a.Eps))
		}
	}
}

// StepCount returns the number of updates applied so far.
func (a *Adam) StepCount() int { return a.step }

// SetStepCount restores the update counter — with the moment tensors
// (Moments), the full optimizer state a training checkpoint resumes
// from.
func (a *Adam) SetStepCount(n int) { a.step = n }

// Moments returns the first- and second-moment state tensors, aligned
// with the constructor's params order. Callers may read or overwrite
// their contents (checkpoint save/restore) but must not reshape them.
func (a *Adam) Moments() (m, v []*tensor.Tensor) { return a.m, a.v }
