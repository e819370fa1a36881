package tgat

import (
	"tgopt/internal/nn"
	"tgopt/internal/tensor"
)

// QuantModel is the int8 inference view of a Model: every attention
// projection, merge layer, and the affinity head carry pre-packed int8
// weights (quantized once here, never per request), while feature
// tables and the time encoder stay shared with the float model. The
// forward math mirrors Model.LayerForwardWith exactly — concatenation,
// softmax, and ReLU run in float32; only the matmuls are quantized.
type QuantModel struct {
	M        *Model
	Attn     []*nn.QuantTemporalAttention // Attn[l-1] serves layer l
	Merge    []*nn.QuantMergeLayer
	Affinity *nn.QuantMergeLayer
}

// QuantizeModel packs m's weights for the int8 path. m is retained (not
// copied): a later weight swap requires re-quantizing via a fresh
// QuantizeModel call, which the engine's swap path does.
func QuantizeModel(m *Model) *QuantModel {
	qm := &QuantModel{M: m}
	for l := 0; l < m.Cfg.Layers; l++ {
		qm.Attn = append(qm.Attn, nn.QuantizeAttention(m.Attn[l]))
		qm.Merge = append(qm.Merge, nn.QuantizeMergeLayer(m.Merge[l]))
	}
	qm.Affinity = nn.QuantizeMergeLayer(m.Affinity)
	return qm
}

// LayerForwardWith is Model.LayerForwardWith through the int8 kernels.
// See that method for the shape contract.
func (qm *QuantModel) LayerForwardWith(ar *tensor.Arena, l int, hTgt, hNgh, eFeat, tEnc0, tEncD *tensor.Tensor, mask []bool) *tensor.Tensor {
	m := qm.M
	n := hTgt.Dim(0)
	q := ar.Tensor(n, m.Cfg.QDim()) // z_i(t)
	tensor.ConcatColsInto(q, hTgt, tEnc0)
	kv := ar.Tensor(hNgh.Dim(0), m.Cfg.KDim()) // z_j(t)
	tensor.ConcatColsInto(kv, hNgh, eFeat, tEncD)
	attnOut := qm.Attn[l-1].ForwardWith(ar, q, kv, m.Cfg.NumNeighbors, mask)
	return qm.Merge[l-1].ForwardWith(ar, attnOut, hTgt) // FFN(r_i ‖ h_i)
}

// ScoreWith is Model.ScoreWith through the int8 affinity head.
func (qm *QuantModel) ScoreWith(ar *tensor.Arena, hSrc, hDst *tensor.Tensor) *tensor.Tensor {
	return qm.Affinity.ForwardWith(ar, hSrc, hDst)
}
