package model

// Fuzz targets for the HCLS decoder and the HCST/HRST state readers,
// seeded from the format goldens: no panic, allocation in proportion to
// the input, and every accepted input re-encodes to the bytes it was read
// from. The state readers restore into models shaped like the d=65
// goldens.

import (
	"bytes"
	"testing"

	"hdcirc/internal/codec/codectest"
)

func addFormatSeeds(f *testing.F) {
	for _, c := range formatCases(f) {
		f.Add(c.Data)
	}
}

func FuzzReadClassifier(f *testing.F) {
	addFormatSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var c *Classifier
		// A loaded class keeps a 4-byte counter per bit it decodes.
		codectest.Check(t, data, 64, func() (int, error) {
			r := bytes.NewReader(data)
			var err error
			c, err = ReadClassifier(r, 1)
			return len(data) - r.Len(), err
		}, func() []byte { return writeBytes(t, c.WriteTo) })
	})
}

func FuzzClassifierRestoreState(f *testing.F) {
	addFormatSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewClassifier(3, 65, 11)
		codectest.Check(t, data, 4, func() (int, error) {
			r := bytes.NewReader(data)
			err := c.RestoreStateFrom(r)
			return len(data) - r.Len(), err
		}, func() []byte { return writeBytes(t, c.WriteStateTo) })
	})
}

func FuzzRegressorRestoreState(f *testing.F) {
	addFormatSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		reg := NewRegressor(65, 13)
		codectest.Check(t, data, 4, func() (int, error) {
			r := bytes.NewReader(data)
			err := reg.RestoreStateFrom(r)
			return len(data) - r.Len(), err
		}, func() []byte { return writeBytes(t, reg.WriteStateTo) })
	})
}
