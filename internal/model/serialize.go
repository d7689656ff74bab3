package model

// Model serialization through internal/codec. A trained classifier is its
// class-vectors; a trained regressor is its model hypervector. Serializing
// the *finalized* binary form (not the integer accumulators) matches how
// HDC models deploy to embedded inference targets: inference needs only
// the binary prototypes. The state formats carry the exact accumulators
// for durable checkpoints.
//
//	classifier:       magic "HCLS" | u32 version | u64 k | k HVEC vectors
//	regressor:        magic "HREG" | u32 version | 1 HVEC vector
//	classifier state: magic "HCST" | u32 version | u64 k | k HACC accumulators
//	regressor state:  magic "HRST" | u32 version | 1 HACC accumulator

import (
	"fmt"
	"io"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/codec"
	"hdcirc/internal/index"
)

const (
	classifierMagic      = "HCLS"
	classifierStateMagic = "HCST"
	regressorMagic       = "HREG"
	regressorStateMagic  = "HRST"
	modelVersion         = 1

	maxClasses = 1 << 20
)

// EncodeClassVectors appends an HCLS section over the given prototypes.
func EncodeClassVectors(w *codec.Writer, protos []*bitvec.Vector) {
	w.Header(classifierMagic, modelVersion)
	w.U64(uint64(len(protos)))
	for _, v := range protos {
		v.Encode(w)
	}
}

// DecodeClassVectors reads an HCLS section: at least one prototype, all of
// one dimension. On failure it returns nil and the error is in r.Err.
func DecodeClassVectors(r *codec.Reader) []*bitvec.Vector {
	r.Header(classifierMagic, modelVersion)
	k := r.Count(r.U64(), maxClasses, bitvec.MinVectorBytes)
	if r.Err() == nil && k == 0 {
		r.Fail(fmt.Errorf("%w: classifier with no classes", codec.ErrCount))
	}
	var vecs []*bitvec.Vector
	for i := 0; i < k && r.Err() == nil; i++ {
		v := bitvec.DecodeVector(r)
		if v != nil && len(vecs) > 0 && v.Dim() != vecs[0].Dim() {
			r.Fail(fmt.Errorf("model: class vector %d dimension %d != %d", i, v.Dim(), vecs[0].Dim()))
		}
		vecs = append(vecs, v)
	}
	if r.Err() != nil {
		return nil
	}
	return vecs
}

// EncodeRegressorVector appends an HREG section over a model vector.
func EncodeRegressorVector(w *codec.Writer, v *bitvec.Vector) {
	w.Header(regressorMagic, modelVersion)
	v.Encode(w)
}

// DecodeRegressorVector reads an HREG section. On failure it returns nil
// and the error is in r.Err.
func DecodeRegressorVector(r *codec.Reader) *bitvec.Vector {
	r.Header(regressorMagic, modelVersion)
	return bitvec.DecodeVector(r)
}

// WriteTo serializes the finalized classifier prototypes. Training state
// (the accumulators) is intentionally not persisted; a loaded model serves
// inference only.
func (c *Classifier) WriteTo(w io.Writer) (int64, error) {
	cw := codec.NewWriter(nil)
	EncodeClassVectors(cw, c.finalized())
	return cw.WriteTo(w)
}

// ReadClassifier deserializes a classifier written by WriteTo. The result
// predicts exactly like the saved model; it can also keep training, but
// note the re-seeding caveat: the binary prototypes are loaded into fresh
// accumulators with UNIT weight, because the integer training counts are
// intentionally not persisted. A class trained on n samples therefore
// resumes as if it had seen one sample, so continued Add/Refine moves the
// prototype much faster than it would have moved the original model —
// fine for fine-tuning on fresh data, skewed if you expect the old
// training mass to keep anchoring the centroid. Keep the live accumulators
// (or a serve.Server warm start, which documents the same property) when
// refinement must continue exactly where it left off.
func ReadClassifier(src io.Reader, seed uint64) (*Classifier, error) {
	r := codec.NewReader(src)
	vecs := DecodeClassVectors(r)
	if vecs == nil {
		return nil, fmt.Errorf("model: reading classifier: %w", r.Err())
	}
	c := NewClassifier(len(vecs), vecs[0].Dim(), seed)
	for i, v := range vecs {
		c.accs[i].Add(v)
	}
	view := &classView{protos: vecs}
	if c.ixCfg.Enabled(c.k) {
		view.ix = index.New(vecs, c.ixCfg)
	}
	c.class.Store(view)
	return c, nil
}

// EncodeState appends the classifier's EXACT training state: every class's
// integer accumulator (counters plus addition count), as an HCST section.
// Unlike WriteTo, a state restored from this section continues training —
// Add, Sub, Refine — bit-identically to the original model, which is what
// durable checkpoints (internal/serve) need so that replaying a
// write-ahead-log suffix equals a full replay.
func (c *Classifier) EncodeState(w *codec.Writer) {
	w.Header(classifierStateMagic, modelVersion)
	w.U64(uint64(c.k))
	for _, acc := range c.accs {
		acc.Encode(w)
	}
}

// DecodeState replaces the classifier's accumulators with the exact
// training state of an HCST section and invalidates the finalized
// prototypes. The section must carry the class count and dimension the
// classifier was built with. On failure the error is in r.Err and the
// classifier is unchanged.
func (c *Classifier) DecodeState(r *codec.Reader) {
	r.Header(classifierStateMagic, modelVersion)
	if k := r.U64(); r.Err() == nil && k != uint64(c.k) {
		r.Fail(fmt.Errorf("model: state carries %d classes, classifier has %d", k, c.k))
	}
	accs := make([]*bitvec.Accumulator, 0, c.k)
	for i := 0; i < c.k && r.Err() == nil; i++ {
		acc := bitvec.DecodeAccumulator(r)
		if acc != nil && acc.Dim() != c.d {
			r.Fail(fmt.Errorf("model: class %d accumulator dimension %d, classifier %d", i, acc.Dim(), c.d))
		}
		accs = append(accs, acc)
	}
	if r.Err() != nil {
		return
	}
	c.accs = accs
	c.class.Store(nil)
}

// WriteStateTo serializes EncodeState's HCST section to w.
func (c *Classifier) WriteStateTo(w io.Writer) (int64, error) {
	cw := codec.NewWriter(nil)
	c.EncodeState(cw)
	return cw.WriteTo(w)
}

// RestoreStateFrom reads an HCST section written by WriteStateTo through
// DecodeState. On error the classifier is unchanged.
func (c *Classifier) RestoreStateFrom(src io.Reader) error {
	r := codec.NewReader(src)
	if c.DecodeState(r); r.Err() != nil {
		return fmt.Errorf("model: reading classifier state: %w", r.Err())
	}
	return nil
}

// WriteTo serializes the finalized regression model hypervector.
func (r *Regressor) WriteTo(w io.Writer) (int64, error) {
	cw := codec.NewWriter(nil)
	EncodeRegressorVector(cw, r.Model())
	return cw.WriteTo(w)
}

// ReadRegressor deserializes a regressor written by WriteTo.
func ReadRegressor(src io.Reader, seed uint64) (*Regressor, error) {
	r := codec.NewReader(src)
	v := DecodeRegressorVector(r)
	if v == nil {
		return nil, fmt.Errorf("model: reading regressor: %w", r.Err())
	}
	reg := NewRegressor(v.Dim(), seed)
	reg.acc.Add(v)
	reg.model.Store(v)
	return reg, nil
}

// EncodeState appends the regressor's exact training state (its
// accumulator) as an HRST section — the regression counterpart of
// Classifier.EncodeState.
func (r *Regressor) EncodeState(w *codec.Writer) {
	w.Header(regressorStateMagic, modelVersion)
	r.acc.Encode(w)
}

// DecodeState replaces the regressor's accumulator with the exact state of
// an HRST section and invalidates the finalized model. On failure the
// error is in rd.Err and the regressor is unchanged.
func (r *Regressor) DecodeState(rd *codec.Reader) {
	rd.Header(regressorStateMagic, modelVersion)
	acc := bitvec.DecodeAccumulator(rd)
	if acc != nil && acc.Dim() != r.d {
		rd.Fail(fmt.Errorf("model: regressor accumulator dimension %d, regressor %d", acc.Dim(), r.d))
	}
	if rd.Err() != nil {
		return
	}
	r.acc = acc
	r.model.Store(nil)
}

// WriteStateTo serializes EncodeState's HRST section to w.
func (r *Regressor) WriteStateTo(w io.Writer) (int64, error) {
	cw := codec.NewWriter(nil)
	r.EncodeState(cw)
	return cw.WriteTo(w)
}

// RestoreStateFrom reads an HRST section written by WriteStateTo through
// DecodeState. On error the regressor is unchanged.
func (r *Regressor) RestoreStateFrom(src io.Reader) error {
	rd := codec.NewReader(src)
	if r.DecodeState(rd); rd.Err() != nil {
		return fmt.Errorf("model: reading regressor state: %w", rd.Err())
	}
	return nil
}
