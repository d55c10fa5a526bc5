package perfmodel

import "testing"

func TestSelectEval(t *testing.T) {
	// Unconstrained budget never streams.
	if got := SelectEval(1<<30, 3, 0); got != EvalInMemory {
		t.Fatalf("no budget: got %v", got)
	}
	if got := SelectEval(1<<30, 3, -1); got != EvalInMemory {
		t.Fatalf("negative budget: got %v", got)
	}
	// A 3-mode slice costs 20 bytes/nnz raw, 80 modeled: 1e5 nonzeros
	// fit an 8 MiB budget and bust a 4 MiB one.
	if got := SelectEval(1e5, 3, 8<<20); got != EvalInMemory {
		t.Fatalf("fits: got %v", got)
	}
	if got := SelectEval(1e5, 3, 4<<20); got != EvalStreamed {
		t.Fatalf("exceeds: got %v", got)
	}
	// Threshold is monotone in nnz: streaming once selected stays
	// selected as the slice grows.
	budget := int64(4 << 20)
	streamedAt := -1
	for nnz := 1 << 10; nnz <= 1<<24; nnz <<= 1 {
		m := SelectEval(nnz, 3, budget)
		if m == EvalStreamed && streamedAt < 0 {
			streamedAt = nnz
		}
		if streamedAt >= 0 && m != EvalStreamed {
			t.Fatalf("non-monotone selection at nnz=%d", nnz)
		}
	}
	if streamedAt < 0 {
		t.Fatal("budget never triggered streaming")
	}
	if ResidentBytes(streamedAt, 3) <= budget {
		t.Fatalf("streamed at %d nonzeros while modeled bytes still fit", streamedAt)
	}
	if m := EvalStreamed.String(); m != "streamed" {
		t.Fatalf("String: %q", m)
	}
}
