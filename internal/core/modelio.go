package core

import (
	"fmt"
	"os"

	"repro/internal/nn"
)

// SaveModel writes a trained IL model to a JSON file — the deployment
// artifact the paper converts for the HiAI DDK. MarshalJSON's output is
// already the compact form json.Marshal would write, so it is written as is.
func SaveModel(m *nn.MLP, path string) error {
	data, err := m.MarshalJSON()
	if err != nil {
		return fmt.Errorf("core: encoding model: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadModel reads a model written by SaveModel and validates its shape
// against the expected input/output dimensions (pass 0 to skip a check).
// UnmarshalJSON checks the whole input itself, so json.Unmarshal's separate
// validating scan of the file is skipped.
func LoadModel(path string, wantIn, wantOut int) (*nn.MLP, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m nn.MLP
	if err := m.UnmarshalJSON(data); err != nil {
		return nil, fmt.Errorf("core: parsing %s: %w", path, err)
	}
	if wantIn > 0 && m.InputDim() != wantIn {
		return nil, fmt.Errorf("core: %s: input dim %d, want %d", path, m.InputDim(), wantIn)
	}
	if wantOut > 0 && m.OutputDim() != wantOut {
		return nil, fmt.Errorf("core: %s: output dim %d, want %d", path, m.OutputDim(), wantOut)
	}
	return &m, nil
}
