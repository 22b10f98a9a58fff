package script

import (
	"bytes"
	"errors"
	"fmt"

	"typecoin/internal/bkey"
	"typecoin/internal/chainhash"
	"typecoin/internal/wire"
)

// Execution limits, matching Bitcoin's.
const (
	maxScriptElementSize  = 520
	maxOpsPerScript       = 201
	maxStackSize          = 1000
	maxScriptSize         = 10000
	maxPubKeysPerMultiSig = 20
)

// Execution errors.
var (
	ErrEvalFalse        = errors.New("script: evaluated to false")
	ErrStackUnderflow   = errors.New("script: stack underflow")
	ErrUnbalancedIf     = errors.New("script: unbalanced conditional")
	ErrDisabledOpcode   = errors.New("script: disabled or unknown opcode")
	ErrEarlyReturn      = errors.New("script: OP_RETURN executed")
	ErrVerifyFailed     = errors.New("script: verify failed")
	ErrScriptTooBig     = errors.New("script: script exceeds size limit")
	ErrTooManyOps       = errors.New("script: too many operations")
	ErrStackOverflow    = errors.New("script: stack size limit exceeded")
	ErrElementTooBig    = errors.New("script: element exceeds size limit")
	ErrSigScriptNotPush = errors.New("script: signature script is not push-only")
	ErrCleanStack       = errors.New("script: stack not clean after execution")
)

// engine executes one script over a shared stack.
type engine struct {
	tx        *wire.MsgTx
	idx       int
	subscript []byte // the script being signed (pkScript of the spent output)
	stack     [][]byte
	altStack  [][]byte
	condStack []bool // conditional execution states, innermost last
	numOps    int
}

func (e *engine) push(b []byte) error {
	if len(b) > maxScriptElementSize {
		return ErrElementTooBig
	}
	if len(e.stack)+len(e.altStack) >= maxStackSize {
		return ErrStackOverflow
	}
	e.stack = append(e.stack, b)
	return nil
}

func (e *engine) pop() ([]byte, error) {
	if len(e.stack) == 0 {
		return nil, ErrStackUnderflow
	}
	top := e.stack[len(e.stack)-1]
	e.stack = e.stack[:len(e.stack)-1]
	return top, nil
}

func (e *engine) peek(depth int) ([]byte, error) {
	if depth >= len(e.stack) {
		return nil, ErrStackUnderflow
	}
	return e.stack[len(e.stack)-1-depth], nil
}

func (e *engine) popNum() (int64, error) {
	b, err := e.pop()
	if err != nil {
		return 0, err
	}
	return decodeScriptNum(b)
}

func (e *engine) pushNum(v int64) error { return e.push(encodeScriptNum(v)) }

func (e *engine) pushBool(v bool) error {
	if v {
		return e.push([]byte{1})
	}
	return e.push(nil)
}

// asBool interprets a stack element as a boolean: any nonzero byte makes
// it true, except that negative zero is false.
func asBool(b []byte) bool {
	for i, c := range b {
		if c != 0 {
			if i == len(b)-1 && c == 0x80 {
				return false
			}
			return true
		}
	}
	return false
}

// executing reports whether the current instruction should run given the
// conditional stack.
func (e *engine) executing() bool {
	for _, c := range e.condStack {
		if !c {
			return false
		}
	}
	return true
}

// scan walks s once without executing it, reporting whether it consists
// solely of data pushes; the error is the script's parse error, if any.
func scan(s []byte) (pushOnly bool, err error) {
	pushOnly = true
	t := tokenizer{s: s}
	for t.next() {
		if t.in.Opcode > OP_16 {
			pushOnly = false
		}
	}
	return pushOnly, t.err
}

// run executes one script. A script that does not parse fails before any
// of it executes.
func (e *engine) run(s []byte) error {
	if len(s) > maxScriptSize {
		return ErrScriptTooBig
	}
	if _, err := scan(s); err != nil {
		return err
	}
	return e.exec(s)
}

// exec executes a script scan has accepted.
func (e *engine) exec(s []byte) error {
	t := tokenizer{s: s}
	for t.next() {
		in := t.in
		op := in.Opcode
		if op > OP_16 {
			e.numOps++
			if e.numOps > maxOpsPerScript {
				return ErrTooManyOps
			}
		}
		// Conditional opcodes are processed even in non-executing branches
		// so nesting stays balanced.
		switch op {
		case OP_IF, OP_NOTIF:
			cond := false
			if e.executing() {
				v, err := e.pop()
				if err != nil {
					return err
				}
				cond = asBool(v)
				if op == OP_NOTIF {
					cond = !cond
				}
			}
			e.condStack = append(e.condStack, cond)
			continue
		case OP_ELSE:
			if len(e.condStack) == 0 {
				return ErrUnbalancedIf
			}
			e.condStack[len(e.condStack)-1] = !e.condStack[len(e.condStack)-1]
			continue
		case OP_ENDIF:
			if len(e.condStack) == 0 {
				return ErrUnbalancedIf
			}
			e.condStack = e.condStack[:len(e.condStack)-1]
			continue
		}
		if !e.executing() {
			continue
		}
		if err := e.step(in); err != nil {
			return err
		}
	}
	if t.err != nil {
		return t.err
	}
	if len(e.condStack) != 0 {
		return ErrUnbalancedIf
	}
	return nil
}

func (e *engine) step(in Instruction) error {
	op := in.Opcode
	if in.Data != nil {
		return e.push(in.Data)
	}
	if v, ok := smallInt(op); ok {
		return e.pushNum(int64(v))
	}
	switch op {
	case OP_NOP:
		return nil
	case OP_VERIFY:
		v, err := e.pop()
		if err != nil {
			return err
		}
		if !asBool(v) {
			return ErrVerifyFailed
		}
		return nil
	case OP_RETURN:
		return ErrEarlyReturn

	// Stack manipulation.
	case OP_TOALTSTACK:
		v, err := e.pop()
		if err != nil {
			return err
		}
		e.altStack = append(e.altStack, v)
		return nil
	case OP_FROMALTSTACK:
		if len(e.altStack) == 0 {
			return ErrStackUnderflow
		}
		v := e.altStack[len(e.altStack)-1]
		e.altStack = e.altStack[:len(e.altStack)-1]
		return e.push(v)
	case OP_DROP:
		_, err := e.pop()
		return err
	case OP_2DROP:
		if _, err := e.pop(); err != nil {
			return err
		}
		_, err := e.pop()
		return err
	case OP_DUP:
		v, err := e.peek(0)
		if err != nil {
			return err
		}
		return e.push(v)
	case OP_2DUP:
		a, err := e.peek(1)
		if err != nil {
			return err
		}
		b, _ := e.peek(0)
		if err := e.push(a); err != nil {
			return err
		}
		return e.push(b)
	case OP_3DUP:
		a, err := e.peek(2)
		if err != nil {
			return err
		}
		b, _ := e.peek(1)
		c, _ := e.peek(0)
		for _, v := range [][]byte{a, b, c} {
			if err := e.push(v); err != nil {
				return err
			}
		}
		return nil
	case OP_2OVER:
		a, err := e.peek(3)
		if err != nil {
			return err
		}
		b, _ := e.peek(2)
		if err := e.push(a); err != nil {
			return err
		}
		return e.push(b)
	case OP_2ROT:
		if len(e.stack) < 6 {
			return ErrStackUnderflow
		}
		n := len(e.stack)
		a, b := e.stack[n-6], e.stack[n-5]
		copy(e.stack[n-6:], e.stack[n-4:])
		e.stack[n-2], e.stack[n-1] = a, b
		return nil
	case OP_2SWAP:
		if len(e.stack) < 4 {
			return ErrStackUnderflow
		}
		n := len(e.stack)
		e.stack[n-4], e.stack[n-2] = e.stack[n-2], e.stack[n-4]
		e.stack[n-3], e.stack[n-1] = e.stack[n-1], e.stack[n-3]
		return nil
	case OP_IFDUP:
		v, err := e.peek(0)
		if err != nil {
			return err
		}
		if asBool(v) {
			return e.push(v)
		}
		return nil
	case OP_DEPTH:
		return e.pushNum(int64(len(e.stack)))
	case OP_NIP:
		if len(e.stack) < 2 {
			return ErrStackUnderflow
		}
		e.stack = append(e.stack[:len(e.stack)-2], e.stack[len(e.stack)-1])
		return nil
	case OP_OVER:
		v, err := e.peek(1)
		if err != nil {
			return err
		}
		return e.push(v)
	case OP_PICK, OP_ROLL:
		n, err := e.popNum()
		if err != nil {
			return err
		}
		if n < 0 || int(n) >= len(e.stack) {
			return ErrStackUnderflow
		}
		idx := len(e.stack) - 1 - int(n)
		v := e.stack[idx]
		if op == OP_ROLL {
			e.stack = append(e.stack[:idx], e.stack[idx+1:]...)
		}
		return e.push(v)
	case OP_ROT:
		if len(e.stack) < 3 {
			return ErrStackUnderflow
		}
		n := len(e.stack)
		e.stack[n-3], e.stack[n-2], e.stack[n-1] = e.stack[n-2], e.stack[n-1], e.stack[n-3]
		return nil
	case OP_SWAP:
		if len(e.stack) < 2 {
			return ErrStackUnderflow
		}
		n := len(e.stack)
		e.stack[n-2], e.stack[n-1] = e.stack[n-1], e.stack[n-2]
		return nil
	case OP_TUCK:
		if len(e.stack) < 2 {
			return ErrStackUnderflow
		}
		n := len(e.stack)
		top := e.stack[n-1]
		e.stack = append(e.stack, nil)
		copy(e.stack[n:], e.stack[n-1:])
		e.stack[n-1] = top
		return nil
	case OP_SIZE:
		v, err := e.peek(0)
		if err != nil {
			return err
		}
		return e.pushNum(int64(len(v)))

	// Comparison.
	case OP_EQUAL, OP_EQUALVERIFY:
		a, err := e.pop()
		if err != nil {
			return err
		}
		b, err := e.pop()
		if err != nil {
			return err
		}
		eq := bytes.Equal(a, b)
		if op == OP_EQUALVERIFY {
			if !eq {
				return ErrVerifyFailed
			}
			return nil
		}
		return e.pushBool(eq)

	// Arithmetic.
	case OP_1ADD, OP_1SUB, OP_NEGATE, OP_ABS, OP_NOT, OP_0NOTEQUAL:
		v, err := e.popNum()
		if err != nil {
			return err
		}
		switch op {
		case OP_1ADD:
			v++
		case OP_1SUB:
			v--
		case OP_NEGATE:
			v = -v
		case OP_ABS:
			if v < 0 {
				v = -v
			}
		case OP_NOT:
			if v == 0 {
				v = 1
			} else {
				v = 0
			}
		case OP_0NOTEQUAL:
			if v != 0 {
				v = 1
			}
		}
		return e.pushNum(v)
	case OP_ADD, OP_SUB, OP_BOOLAND, OP_BOOLOR, OP_NUMEQUAL, OP_NUMEQUALVERIFY,
		OP_NUMNOTEQUAL, OP_LESSTHAN, OP_GREATERTHAN, OP_LESSTHANOREQUAL,
		OP_GREATERTHANOREQUAL, OP_MIN, OP_MAX:
		b, err := e.popNum()
		if err != nil {
			return err
		}
		a, err := e.popNum()
		if err != nil {
			return err
		}
		switch op {
		case OP_ADD:
			return e.pushNum(a + b)
		case OP_SUB:
			return e.pushNum(a - b)
		case OP_BOOLAND:
			return e.pushBool(a != 0 && b != 0)
		case OP_BOOLOR:
			return e.pushBool(a != 0 || b != 0)
		case OP_NUMEQUAL:
			return e.pushBool(a == b)
		case OP_NUMEQUALVERIFY:
			if a != b {
				return ErrVerifyFailed
			}
			return nil
		case OP_NUMNOTEQUAL:
			return e.pushBool(a != b)
		case OP_LESSTHAN:
			return e.pushBool(a < b)
		case OP_GREATERTHAN:
			return e.pushBool(a > b)
		case OP_LESSTHANOREQUAL:
			return e.pushBool(a <= b)
		case OP_GREATERTHANOREQUAL:
			return e.pushBool(a >= b)
		case OP_MIN:
			return e.pushNum(min(a, b))
		default: // OP_MAX
			return e.pushNum(max(a, b))
		}
	case OP_WITHIN:
		hi, err := e.popNum()
		if err != nil {
			return err
		}
		lo, err := e.popNum()
		if err != nil {
			return err
		}
		v, err := e.popNum()
		if err != nil {
			return err
		}
		return e.pushBool(lo <= v && v < hi)

	// Crypto.
	case OP_SHA256:
		v, err := e.pop()
		if err != nil {
			return err
		}
		h := chainhash.HashB(v)
		return e.push(h[:])
	case OP_HASH256:
		v, err := e.pop()
		if err != nil {
			return err
		}
		h := chainhash.DoubleHashB(v)
		return e.push(h[:])
	case OP_HASH160:
		v, err := e.pop()
		if err != nil {
			return err
		}
		h := chainhash.HashB(v)
		return e.push(h[:bkey.PrincipalSize])
	case OP_CHECKSIG, OP_CHECKSIGVERIFY:
		pkBytes, err := e.pop()
		if err != nil {
			return err
		}
		sigBytes, err := e.pop()
		if err != nil {
			return err
		}
		ok := e.checkSig(sigBytes, pkBytes)
		if op == OP_CHECKSIGVERIFY {
			if !ok {
				return ErrVerifyFailed
			}
			return nil
		}
		return e.pushBool(ok)
	case OP_CHECKMULTISIG, OP_CHECKMULTISIGVERIFY:
		ok, err := e.checkMultiSig()
		if err != nil {
			return err
		}
		if op == OP_CHECKMULTISIGVERIFY {
			if !ok {
				return ErrVerifyFailed
			}
			return nil
		}
		return e.pushBool(ok)
	}
	return fmt.Errorf("%w: %#02x", ErrDisabledOpcode, op)
}

// checkSig verifies a script signature (DER signature || 1-byte hash type)
// against a serialized public key over the transaction's signature hash.
// The bytes are verified as they are, so a key bkey has tabled is never
// parsed.
func (e *engine) checkSig(sigBytes, pkBytes []byte) bool {
	if len(sigBytes) < 2 {
		return false
	}
	hashType := SigHashType(sigBytes[len(sigBytes)-1])
	digest, err := CalcSignatureHash(e.subscript, hashType, e.tx, e.idx)
	if err != nil {
		return false
	}
	return bkey.VerifyBytes(pkBytes, digest[:], sigBytes[:len(sigBytes)-1])
}

// checkMultiSig implements OP_CHECKMULTISIG: pops n, n pubkeys, m, m
// signatures and the historical extra dummy element; succeeds when each
// signature matches some remaining pubkey in order.
func (e *engine) checkMultiSig() (bool, error) {
	n, err := e.popNum()
	if err != nil {
		return false, err
	}
	if n < 0 || n > maxPubKeysPerMultiSig {
		return false, fmt.Errorf("script: invalid pubkey count %d", n)
	}
	pubKeys := make([][]byte, n)
	for i := int(n) - 1; i >= 0; i-- {
		pubKeys[i], err = e.pop()
		if err != nil {
			return false, err
		}
	}
	m, err := e.popNum()
	if err != nil {
		return false, err
	}
	if m < 0 || m > n {
		return false, fmt.Errorf("script: invalid signature count %d of %d", m, n)
	}
	sigs := make([][]byte, m)
	for i := int(m) - 1; i >= 0; i-- {
		sigs[i], err = e.pop()
		if err != nil {
			return false, err
		}
	}
	// Bitcoin's off-by-one bug: an extra element is consumed.
	if _, err := e.pop(); err != nil {
		return false, err
	}
	sigIdx, keyIdx := 0, 0
	for sigIdx < len(sigs) {
		if keyIdx >= len(pubKeys) {
			return false, nil
		}
		if len(sigs)-sigIdx > len(pubKeys)-keyIdx {
			return false, nil
		}
		if e.checkSig(sigs[sigIdx], pubKeys[keyIdx]) {
			sigIdx++
		}
		keyIdx++
	}
	return true, nil
}

// IsPushOnly reports whether the script consists solely of data pushes.
func IsPushOnly(s []byte) bool {
	pushOnly, err := scan(s)
	return pushOnly && err == nil
}

// VerifyInput executes the signature script of tx's input idx followed by
// the locking script pkScript of the output it spends, and reports whether
// the combination authorizes the spend (Section 2, condition 4). A
// signature script that is not push-only fails with ErrSigScriptNotPush
// before anything executes.
func VerifyInput(tx *wire.MsgTx, idx int, pkScript []byte) error {
	if idx < 0 || idx >= len(tx.TxIn) {
		return fmt.Errorf("script: input index %d out of range", idx)
	}
	sigScript := tx.TxIn[idx].SignatureScript
	if !IsPushOnly(sigScript) {
		return ErrSigScriptNotPush
	}
	e := engine{tx: tx, idx: idx, subscript: pkScript}
	// The push-only scan has parsed the signature script already.
	if len(sigScript) > maxScriptSize {
		return fmt.Errorf("script: signature script: %w", ErrScriptTooBig)
	}
	if err := e.exec(sigScript); err != nil {
		return fmt.Errorf("script: signature script: %w", err)
	}
	if err := e.run(pkScript); err != nil {
		return fmt.Errorf("script: pk script: %w", err)
	}
	if len(e.stack) == 0 {
		return ErrEvalFalse
	}
	if !asBool(e.stack[len(e.stack)-1]) {
		return ErrEvalFalse
	}
	return nil
}
