package troxy

import (
	"bytes"
	"testing"

	"github.com/troxy-bft/troxy/internal/msg"
)

func TestGroupTagger(t *testing.T) {
	tagger := NewGroupTagger([]byte("group-secret"))
	verifier := NewGroupTagger([]byte("group-secret"))

	input := []byte("reply-content")
	tag := tagger.Tag(nil, msg.KindOrderedReply, 0, input)
	if !verifier.Verify(msg.KindOrderedReply, 0, input, tag) {
		t.Fatal("valid group tag rejected")
	}
	// A tag is bound to the producing instance.
	if verifier.Verify(msg.KindOrderedReply, 1, input, tag) {
		t.Error("tag accepted for wrong instance")
	}
	if verifier.Verify(msg.KindOrderedReply, 0, []byte("other"), tag) {
		t.Error("tag accepted for wrong input")
	}
	if verifier.Verify(msg.KindOrderedReply, 0, input, tag[:10]) {
		t.Error("truncated tag accepted")
	}
}

// TestGroupTagIsBoundToItsKind: the same bytes from the same instance tagged
// as two kinds of message are two different tags, and neither verifies as the
// other kind. A message only Troxies check travels without a host MAC, so
// this is what keeps, say, a cache reply's tag from passing for a reply's over
// bytes that happen to decode as both.
func TestGroupTagIsBoundToItsKind(t *testing.T) {
	tagger := NewGroupTagger([]byte("group-secret"))
	kinds := []msg.Kind{msg.KindOrderedReply, msg.KindSpecReply, msg.KindCacheQuery, msg.KindCacheReply}
	input := []byte("the same bytes")
	for _, made := range kinds {
		tag := tagger.Tag(nil, made, 1, input)
		for _, other := range kinds {
			if other == made {
				continue
			}
			if bytes.Equal(tag, tagger.Tag(nil, other, 1, input)) {
				t.Errorf("%s and %s tag the same bytes alike", made, other)
			}
			if tagger.Verify(other, 1, input, tag) {
				t.Errorf("a %s tag verifies as a %s's", made, other)
			}
		}
		if !tagger.Verify(made, 1, input, tag) {
			t.Errorf("a %s tag does not verify as its own kind", made)
		}
	}
}

func TestGroupTaggerDifferentKeysDisagree(t *testing.T) {
	a := NewGroupTagger([]byte("key-a"))
	b := NewGroupTagger([]byte("key-b"))
	input := []byte("x")
	if b.Verify(msg.KindCacheQuery, 0, input, a.Tag(nil, msg.KindCacheQuery, 0, input)) {
		t.Error("tag from different key accepted")
	}
}
