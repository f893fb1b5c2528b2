package tree

import (
	"encoding/json"
	"errors"

	"twosmart/internal/ml"
)

// nodeDTO is the serialised form of a tree node; children are indices into
// the flat node list (-1 for none), keeping the encoding recursion-free.
type nodeDTO struct {
	Feat      int       `json:"feat"`
	Threshold float64   `json:"threshold"`
	Left      int       `json:"left"`
	Right     int       `json:"right"`
	Counts    []float64 `json:"counts"`
	Leaf      bool      `json:"leaf"`
}

// modelDTO is the serialised form of a J48 model.
type modelDTO struct {
	Nodes      []nodeDTO `json:"nodes"` // index 0 is the root
	NumClasses int       `json:"num_classes"`
	FeatNames  []string  `json:"feature_names"`
}

// Marshal serialises a J48 model to JSON. It reports false if c is not a
// J48 model.
func Marshal(c ml.Classifier) ([]byte, bool, error) {
	m, ok := c.(*j48)
	if !ok {
		return nil, false, nil
	}
	dto := modelDTO{NumClasses: m.numClasses, FeatNames: m.featNames}
	var flatten func(n *node) int
	flatten = func(n *node) int {
		idx := len(dto.Nodes)
		dto.Nodes = append(dto.Nodes, nodeDTO{
			Feat: n.feat, Threshold: n.threshold,
			Left: -1, Right: -1,
			Counts: n.counts, Leaf: n.leaf,
		})
		if !n.leaf {
			dto.Nodes[idx].Left = flatten(n.left)
			dto.Nodes[idx].Right = flatten(n.right)
		}
		return idx
	}
	flatten(m.root)
	data, err := json.Marshal(dto)
	return data, true, err
}

// Unmarshal reconstructs a J48 model serialised by Marshal. It rejects a
// tree that could not score: an internal node testing a negative feature
// index, or a leaf without one count per class.
func Unmarshal(data []byte) (ml.Classifier, error) {
	var dto modelDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		return nil, err
	}
	if len(dto.Nodes) == 0 {
		return nil, errors.New("tree: empty serialised model")
	}
	if dto.NumClasses <= 0 {
		return nil, errors.New("tree: invalid class count")
	}
	nodes := make([]node, len(dto.Nodes))
	// Marshal emits nodes in pre-order, so every child index is strictly
	// greater than its parent's and each node is referenced exactly once.
	// Enforcing both here is what makes the reconstructed pointer graph a
	// tree: child > parent rules out cycles (which would hang Detect and
	// overflow the stack on re-Marshal), and single-reference rules out
	// shared subtrees (which re-Marshal would duplicate exponentially).
	claimed := make([]bool, len(dto.Nodes))
	for i, nd := range dto.Nodes {
		nodes[i] = node{
			feat: nd.Feat, threshold: nd.Threshold,
			counts: nd.Counts, leaf: nd.Leaf,
		}
		if nd.Leaf {
			if len(nd.Counts) != dto.NumClasses {
				return nil, errors.New("tree: leaf class counts do not match the class count")
			}
			continue
		}
		if nd.Feat < 0 {
			return nil, errors.New("tree: negative feature index")
		}
		if nd.Left <= i || nd.Left >= len(dto.Nodes) || nd.Right <= i || nd.Right >= len(dto.Nodes) ||
			nd.Left == nd.Right {
			return nil, errors.New("tree: corrupt child indices")
		}
		if claimed[nd.Left] || claimed[nd.Right] {
			return nil, errors.New("tree: node referenced by two parents")
		}
		claimed[nd.Left], claimed[nd.Right] = true, true
		nodes[i].left = &nodes[nd.Left]
		nodes[i].right = &nodes[nd.Right]
	}
	return &j48{root: &nodes[0], numClasses: dto.NumClasses, featNames: dto.FeatNames}, nil
}
